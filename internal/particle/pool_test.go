package particle

import (
	"runtime"
	"runtime/debug"
	"sync"
	"testing"
	"time"
)

// collect runs one collection and waits for p to have seen it.
func collect(t *testing.T, p *Pool[[]byte]) {
	t.Helper()
	p.mu.Lock()
	epoch, armed := p.epoch, p.armed
	p.mu.Unlock()
	runtime.GC()
	for deadline := time.Now().Add(10 * time.Second); armed; time.Sleep(time.Millisecond) {
		p.mu.Lock()
		armed = p.epoch == epoch
		p.mu.Unlock()
		if armed && time.Now().After(deadline) {
			t.Fatal("the pool did not see a collection")
		}
	}
}

// TestPool: what eight goroutines on eight Ps put comes back to a ninth;
// a value lies unused through one collection and is dropped at the
// second, and one taken and put back between them is kept. Every request
// from one element to the frames of a 64 MiB image gets a class whose
// size exceeds it by under a quarter; a request its class cannot serve
// takes a slice of the next three classes up, never more than twice
// what it asked for, once its class has made one of its own; a slice of a capacity no class has is not pooled;
// and slices cross goroutines under churn (-race holds the pool to the
// happens-before edge).
func TestPool(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(8))
	defer debug.SetGCPercent(debug.SetGCPercent(-1)) // only collect collects
	var ints Pool[*int]
	var wg sync.WaitGroup
	put := make(map[*int]bool)
	for g := 0; g < 8; g++ {
		v := new(int)
		put[v] = true
		wg.Add(1)
		go func() {
			defer wg.Done()
			ints.Put(v)
		}()
	}
	wg.Wait()
	got := make(chan map[*int]bool)
	go func() {
		m := make(map[*int]bool)
		for v := ints.Get(); v != nil; v = ints.Get() {
			m[v] = true
		}
		got <- m
	}()
	if m := <-got; len(m) != len(put) {
		t.Errorf("8 goroutines put %d values, one other got %d back", len(put), len(m))
	} else {
		for v := range m {
			if !put[v] {
				t.Error("a value came back that was never put")
			}
		}
	}

	var p Pool[[]byte]
	idle, used := make([]byte, 10), make([]byte, 20)
	p.Put(idle)
	p.Put(used)
	collect(t, &p)
	if v := p.Get(); len(v) != len(used) {
		t.Fatalf("after one collection the last value put is %d bytes, want %d", len(v), len(used))
	}
	p.Put(used)
	collect(t, &p)
	if v := p.Get(); len(v) != len(used) {
		t.Errorf("a value used between two collections was dropped")
	}
	if v := p.Get(); v != nil {
		t.Errorf("a value unused through two collections is still held")
	}
	p.Put(used)
	collect(t, &p)
	collect(t, &p)
	p.mu.Lock()
	if len(p.free) != 0 || p.armed {
		t.Errorf("after two collections the pool holds %d values (armed %v)", len(p.free), p.armed)
	}
	p.mu.Unlock()

	top := FrameBound(Uintah(), 64<<20)
	var empty Classed[struct{}] // zero-size elements: Get allocates nothing
	edge := func(n int) {
		if s := empty.Get(n); len(s) != n || cap(s) < n || 4*cap(s) > 5*n {
			t.Fatalf("Get(%d): len %d cap %d", n, len(s), cap(s))
		}
	}
	class, size := -1, 0
	for n := 1; n <= top; n++ {
		i, s := sizeClass(n)
		if n > size { // the first request of the next class
			if i != class+1 || s < n || i >= numClasses || classSize(i) != s {
				t.Fatalf("size %d: class %d of %d elements after class %d", n, i, s, class)
			}
			if n > 1 {
				edge(size)
			}
			edge(n)
			class, size = i, s
		} else if i != class || s != size {
			t.Fatalf("size %d: class %d of %d elements inside class %d of %d", n, i, s, class, size)
		}
		if 4*s > 5*n {
			t.Fatalf("size %d: class of %d elements", n, s)
		}
	}
	if i, s := sizeClass(1 << classShift); i != numClasses-1 || s != 1<<classShift || classSize(i) != s {
		t.Fatalf("the largest class is %d of %d elements, want %d of %d", i, s, numClasses-1, 1<<classShift)
	}

	var c Classed[byte]
	foreign := make([]byte, 5000)
	c.Put(foreign)
	if b := c.Get(5000); cap(b) != 5120 || &b[0] == &foreign[0] {
		t.Errorf("a slice of capacity 5000 was pooled: got cap %d", cap(b))
	}
	b := c.Get(5000)
	c.Put(b)
	if again := c.Get(4900); &again[0] != &b[0] {
		t.Error("a returned slice did not serve the next request of its class")
	}
	// 4097 is the first request of the class of 5120; the three above it
	// end at 8192, under twice the request.
	for _, size := range []int{6144, 7168, 8192} {
		b := make([]byte, size)
		c.Put(b)
		if up := c.Get(4097); cap(up) != size || &up[0] != &b[0] {
			t.Errorf("a request of 4097 got cap %d, not the held slice of %d", cap(up), size)
		}
	}
	c.Put(make([]byte, 10240)) // four classes up
	if far := c.Get(4097); cap(far) != 5120 {
		t.Errorf("a request of 4097 got cap %d, want a new 5120", cap(far))
	}
	c.Put(make([]byte, 8192))
	if far := c.Get(4096); cap(far) != 4096 { // twice the request, but four classes up
		t.Errorf("a request of 4096 got cap %d, want a new 4096", cap(far))
	}
	var cold Classed[byte]
	cold.Put(make([]byte, 6144))
	if own := cold.Get(4097); cap(own) != 5120 {
		t.Errorf("a class that never made a slice borrowed one of cap %d", cap(own))
	}
	if up := cold.Get(4097); cap(up) != 6144 {
		t.Errorf("with its own slice out, a request of 4097 got cap %d, not the held 6144", cap(up))
	}
	c.Put(make([]byte, 3)) // two classes up, but three times the request
	if small := c.Get(1); cap(small) != 1 {
		t.Errorf("a request of 1 got cap %d", cap(small))
	}

	done := make(chan struct{})
	churn := func(fill byte) {
		for i := 0; i < 200; i++ {
			b := c.Get(1000 + i)
			for j := range b {
				b[j] = fill
			}
			c.Put(b)
		}
	}
	go func() {
		defer close(done)
		churn(1)
	}()
	churn(2)
	<-done
}
