package mpi

import (
	"errors"
	"testing"
	"time"
)

func TestRunTimeoutCompletes(t *testing.T) {
	w := NewWorld(4)
	err := w.RunTimeout(5*time.Second, func(c *Comm) error {
		c.Barrier()
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestRunTimeoutDetectsDeadlock(t *testing.T) {
	w := NewWorld(2)
	err := w.RunTimeout(100*time.Millisecond, func(c *Comm) error {
		if c.Rank() == 0 {
			c.Recv(1, 0) // rank 1 never sends: deadlock
		}
		return nil
	})
	var te *ErrTimeout
	if !errors.As(err, &te) {
		t.Fatalf("err = %v, want timeout", err)
	}
}

func TestTrafficCounters(t *testing.T) {
	w := NewWorld(4)
	if tr := w.Traffic(); tr.Messages != 0 || tr.Bytes != 0 {
		t.Fatalf("fresh world traffic %+v", tr)
	}
	err := w.Run(func(c *Comm) error {
		if c.Rank() == 0 {
			c.Send(1, 0, make([]byte, 100))
		}
		if c.Rank() == 1 {
			c.Recv(0, 0)
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	tr := w.Traffic()
	if tr.Messages != 1 || tr.Bytes != 100 {
		t.Errorf("traffic after one send: %+v", tr)
	}
	// Collectives move wire messages too.
	err = w.Run(func(c *Comm) error { c.Allreduce(1, OpSum); return nil })
	if err != nil {
		t.Fatal(err)
	}
	if tr2 := w.Traffic(); tr2.Messages <= tr.Messages {
		t.Errorf("collective moved no messages: %+v", tr2)
	}
}
