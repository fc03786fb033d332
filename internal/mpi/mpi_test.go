package mpi

import (
	"bytes"
	"errors"
	"fmt"
	"sync/atomic"
	"testing"
	"testing/quick"
)

func TestSendRecvBasic(t *testing.T) {
	err := Run(2, func(c *Comm) error {
		if c.Rank() == 0 {
			c.Send(1, 5, []byte("hello"))
		} else {
			data, st := c.Recv(0, 5)
			if string(data) != "hello" {
				return fmt.Errorf("got %q", data)
			}
			if st.Source != 0 || st.Tag != 5 {
				return fmt.Errorf("status %+v", st)
			}
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestSendCopiesData(t *testing.T) {
	err := Run(2, func(c *Comm) error {
		if c.Rank() == 0 {
			buf := []byte("aaaa")
			c.Send(1, 0, buf)
			copy(buf, "zzzz") // mutate after send; receiver must see "aaaa"
			c.Barrier()
		} else {
			c.Barrier()
			data, _ := c.Recv(0, 0)
			if string(data) != "aaaa" {
				return fmt.Errorf("send did not copy: got %q", data)
			}
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestTagMatching(t *testing.T) {
	err := Run(2, func(c *Comm) error {
		if c.Rank() == 0 {
			c.Send(1, 7, []byte("seven"))
			c.Send(1, 3, []byte("three"))
		} else {
			// Receive out of send order by tag.
			d3, _ := c.Recv(0, 3)
			d7, _ := c.Recv(0, 7)
			if string(d3) != "three" || string(d7) != "seven" {
				return fmt.Errorf("tag matching failed: %q %q", d3, d7)
			}
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestFIFOPerSourceAndTag(t *testing.T) {
	err := Run(2, func(c *Comm) error {
		const k = 100
		if c.Rank() == 0 {
			for i := 0; i < k; i++ {
				c.Send(1, 0, []byte{byte(i)})
			}
		} else {
			for i := 0; i < k; i++ {
				d, _ := c.Recv(0, 0)
				if d[0] != byte(i) {
					return fmt.Errorf("message %d arrived as %d", i, d[0])
				}
			}
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestAnySourceAnyTag(t *testing.T) {
	err := Run(4, func(c *Comm) error {
		if c.Rank() != 0 {
			c.Send(0, c.Rank(), []byte{byte(c.Rank())})
			return nil
		}
		seen := make(map[int]bool)
		for i := 0; i < 3; i++ {
			d, st := c.Recv(AnySource, AnyTag)
			if int(d[0]) != st.Source || st.Tag != st.Source {
				return fmt.Errorf("mismatched status %+v payload %v", st, d)
			}
			seen[st.Source] = true
		}
		if len(seen) != 3 {
			return fmt.Errorf("saw %d sources", len(seen))
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestIsendIrecvWaitAll(t *testing.T) {
	err := Run(8, func(c *Comm) error {
		n := c.Size()
		// Everyone sends its rank to everyone (including itself via loop
		// skip), non-blocking, then receives all — the paper's particle
		// exchange pattern.
		for dst := 0; dst < n; dst++ {
			if dst != c.Rank() {
				c.Isend(dst, 1, []byte{byte(c.Rank())})
			}
		}
		var reqs []*Request
		for src := 0; src < n; src++ {
			if src != c.Rank() {
				reqs = append(reqs, c.Irecv(src, 1))
			}
		}
		for i, r := range reqs {
			data, _ := r.Wait()
			want := i
			if i >= c.Rank() {
				want = i + 1
			}
			if int(data[0]) != want {
				return fmt.Errorf("recv %d: got %d want %d", i, data[0], want)
			}
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestBarrierOrdersPhases(t *testing.T) {
	var phase1 atomic.Int64
	err := Run(16, func(c *Comm) error {
		phase1.Add(1)
		c.Barrier()
		if got := phase1.Load(); got != 16 {
			return fmt.Errorf("rank %d passed barrier with only %d arrivals", c.Rank(), got)
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestBarrierReusable(t *testing.T) {
	var counter atomic.Int64
	err := Run(8, func(c *Comm) error {
		for round := int64(1); round <= 5; round++ {
			counter.Add(1)
			c.Barrier()
			if got := counter.Load(); got != 8*round {
				return fmt.Errorf("round %d: counter %d", round, got)
			}
			c.Barrier()
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestBcastVariousRootsAndSizes(t *testing.T) {
	for _, n := range []int{1, 2, 3, 4, 7, 16, 33} {
		for _, root := range []int{0, n - 1, n / 2} {
			payload := []byte(fmt.Sprintf("payload-from-%d", root))
			err := Run(n, func(c *Comm) error {
				var in []byte
				if c.Rank() == root {
					in = payload
				}
				out := c.Bcast(root, in)
				if !bytes.Equal(out, payload) {
					return fmt.Errorf("rank %d got %q", c.Rank(), out)
				}
				return nil
			})
			if err != nil {
				t.Fatalf("n=%d root=%d: %v", n, root, err)
			}
		}
	}
}

func TestGather(t *testing.T) {
	const n, root = 9, 4
	err := Run(n, func(c *Comm) error {
		data := []byte(fmt.Sprintf("r%d", c.Rank()))
		parts := c.Gather(root, data)
		if c.Rank() != root {
			if parts != nil {
				return fmt.Errorf("non-root got %v", parts)
			}
			return nil
		}
		for i, p := range parts {
			if string(p) != fmt.Sprintf("r%d", i) {
				return fmt.Errorf("slot %d = %q", i, p)
			}
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestAllgather(t *testing.T) {
	for _, n := range []int{1, 2, 5, 16} {
		err := Run(n, func(c *Comm) error {
			// Variable-size contributions, including empty.
			data := bytes.Repeat([]byte{byte(c.Rank())}, c.Rank())
			parts := c.Allgather(data)
			if len(parts) != n {
				return fmt.Errorf("got %d parts", len(parts))
			}
			for i, p := range parts {
				if len(p) != i {
					return fmt.Errorf("part %d has len %d", i, len(p))
				}
				for _, b := range p {
					if b != byte(i) {
						return fmt.Errorf("part %d corrupt", i)
					}
				}
			}
			return nil
		})
		if err != nil {
			t.Fatalf("n=%d: %v", n, err)
		}
	}
}

func TestAlltoall(t *testing.T) {
	const n = 6
	err := Run(n, func(c *Comm) error {
		bufs := make([][]byte, n)
		for dst := range bufs {
			bufs[dst] = []byte{byte(c.Rank()), byte(dst)}
		}
		out := c.Alltoall(bufs)
		for src, p := range out {
			if len(p) != 2 || int(p[0]) != src || int(p[1]) != c.Rank() {
				return fmt.Errorf("from %d: got %v", src, p)
			}
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestAlltoallSelfCopyIndependent(t *testing.T) {
	err := Run(2, func(c *Comm) error {
		bufs := [][]byte{{1}, {2}}
		out := c.Alltoall(bufs)
		bufs[c.Rank()][0] = 99
		if out[c.Rank()][0] == 99 {
			return errors.New("self payload aliases input")
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestReduceAndAllreduce(t *testing.T) {
	const n = 13
	err := Run(n, func(c *Comm) error {
		v := int64(c.Rank() + 1)
		sum := c.Reduce(0, v, OpSum)
		if c.Rank() == 0 && sum != n*(n+1)/2 {
			return fmt.Errorf("sum = %d", sum)
		}
		all := c.Allreduce(v, OpMax)
		if all != n {
			return fmt.Errorf("allreduce max = %d", all)
		}
		mn := c.Allreduce(v, OpMin)
		if mn != 1 {
			return fmt.Errorf("allreduce min = %d", mn)
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestSendRecvExchange(t *testing.T) {
	err := Run(4, func(c *Comm) error {
		right := (c.Rank() + 1) % c.Size()
		left := (c.Rank() + c.Size() - 1) % c.Size()
		got, st := c.SendRecv(right, left, 2, []byte{byte(c.Rank())})
		if int(got[0]) != left || st.Source != left {
			return fmt.Errorf("ring exchange got %v from %d", got, st.Source)
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestProbe(t *testing.T) {
	err := Run(2, func(c *Comm) error {
		if c.Rank() == 0 {
			if c.Probe(1, 0) {
				return errors.New("probe true before send")
			}
			c.Barrier()
			c.Barrier()
			if !c.Probe(1, 9) {
				return errors.New("probe false after send+barrier")
			}
			data, _ := c.Recv(1, 9)
			if string(data) != "x" {
				return fmt.Errorf("got %q", data)
			}
		} else {
			c.Barrier()
			c.Send(0, 9, []byte("x"))
			c.Barrier()
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestRunPropagatesError(t *testing.T) {
	sentinel := errors.New("boom")
	err := Run(4, func(c *Comm) error {
		if c.Rank() == 2 {
			return sentinel
		}
		return nil
	})
	var re *RankError
	if !errors.As(err, &re) || re.Rank != 2 || !errors.Is(err, sentinel) {
		t.Fatalf("err = %v", err)
	}
}

func TestRunRecoversPanic(t *testing.T) {
	err := Run(3, func(c *Comm) error {
		if c.Rank() == 1 {
			panic("kaboom")
		}
		return nil
	})
	var re *RankError
	if !errors.As(err, &re) || re.Rank != 1 {
		t.Fatalf("err = %v", err)
	}
}

func TestInvalidRanksPanic(t *testing.T) {
	w := NewWorld(2)
	c := w.Comm(0)
	for name, fn := range map[string]func(){
		"send":      func() { c.Send(2, 0, nil) },
		"recv":      func() { c.Recv(5, 0) },
		"comm":      func() { w.Comm(2) },
		"worldsize": func() { NewWorld(0) },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("%s: expected panic", name)
				}
			}()
			fn()
		}()
	}
}

func TestQuickPackUnpackSlices(t *testing.T) {
	f := func(parts [][]byte) bool {
		out, err := unpackSlices(packSlices(parts))
		if err != nil {
			return false
		}
		if len(out) != len(parts) {
			return false
		}
		for i := range parts {
			if !bytes.Equal(out[i], parts[i]) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

func TestUnpackSlicesCorrupt(t *testing.T) {
	if _, err := unpackSlices(nil); err == nil {
		t.Error("nil payload should fail")
	}
	good := packSlices([][]byte{{1, 2, 3}})
	if _, err := unpackSlices(good[:len(good)-1]); err == nil {
		t.Error("truncated payload should fail")
	}
	if _, err := unpackSlices(append(good, 0)); err == nil {
		t.Error("trailing bytes should fail")
	}
}

func TestLargeWorldSmoke(t *testing.T) {
	// 1024 goroutine ranks doing a collective round trip: the scale the
	// local engine needs for integration tests.
	const n = 1024
	err := Run(n, func(c *Comm) error {
		sum := c.Allreduce(1, OpSum)
		if sum != n {
			return fmt.Errorf("sum = %d", sum)
		}
		parts := c.Allgather([]byte{byte(c.Rank() % 251)})
		if len(parts) != n || parts[17][0] != 17 {
			return errors.New("allgather wrong")
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}
