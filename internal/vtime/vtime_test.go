package vtime

import (
	"runtime"
	"sync"
	"testing"
	"time"
)

func TestRealNowAdvances(t *testing.T) {
	c := Real{}
	a := c.Now()
	time.Sleep(2 * time.Millisecond)
	if !c.Now().After(a) {
		t.Fatal("real clock did not advance")
	}
}

func TestScaledRunsFaster(t *testing.T) {
	c := NewScaled(1000)
	start := c.Now()
	time.Sleep(5 * time.Millisecond)
	elapsed := c.Now().Sub(start)
	if elapsed < 2*time.Second {
		t.Fatalf("scaled clock advanced only %v for 5ms real at 1000x", elapsed)
	}
}

func TestScaledSleepIsCompressed(t *testing.T) {
	c := NewScaled(1000)
	real0 := time.Now()
	c.Sleep(2 * time.Second) // should take ~2ms real
	real := time.Since(real0)
	if real > 500*time.Millisecond {
		t.Fatalf("scaled sleep of 2s virtual took %v real", real)
	}
}

func TestScaledSleepNonPositive(t *testing.T) {
	c := NewScaled(10)
	done := make(chan struct{})
	go func() {
		c.Sleep(0)
		c.Sleep(-time.Second)
		close(done)
	}()
	select {
	case <-done:
	case <-time.After(time.Second):
		t.Fatal("non-positive sleeps blocked")
	}
}

func TestScaledAfter(t *testing.T) {
	c := NewScaled(1000)
	select {
	case <-c.After(time.Second):
	case <-time.After(2 * time.Second):
		t.Fatal("After(1s virtual) did not fire within 2s real at 1000x")
	}
}

func TestScaledAfterNonPositiveFiresImmediately(t *testing.T) {
	c := NewScaled(10)
	for _, d := range []time.Duration{0, -time.Second} {
		select {
		case <-c.After(d):
		default:
			t.Fatalf("After(%v) not ready at once", d)
		}
	}
}

func TestScaledAfterHoldsNoGoroutine(t *testing.T) {
	// A watchdog that outlives its invocation abandons its After channel;
	// an hour of virtual time is 90 s of real time at 40x, which must not
	// cost a parked goroutine per call.
	c := NewScaled(40)
	before := runtime.NumGoroutine()
	for i := 0; i < 200; i++ {
		c.After(time.Hour)
	}
	if grown := runtime.NumGoroutine() - before; grown >= 10 {
		t.Fatalf("200 pending After calls grew the goroutine count by %d", grown)
	}
}

func TestScaledPanicsOnBadScale(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic for scale 0")
		}
	}()
	NewScaled(0)
}

func TestScaledEpochIsUnixZero(t *testing.T) {
	c := NewScaled(100)
	if c.Now().Before(time.Unix(0, 0)) {
		t.Fatal("scaled now precedes epoch")
	}
	if c.Now().Sub(time.Unix(0, 0).UTC()) > time.Hour {
		t.Fatal("scaled now drifted implausibly far from epoch at start")
	}
}

func TestManualSleepBlocksUntilAdvance(t *testing.T) {
	c := NewManual(time.Unix(0, 0))
	done := make(chan struct{})
	go func() {
		c.Sleep(10 * time.Second)
		close(done)
	}()
	// Wait until the sleeper registers.
	for c.Pending() == 0 {
		time.Sleep(time.Millisecond)
	}
	select {
	case <-done:
		t.Fatal("sleep returned before advance")
	default:
	}
	c.Advance(10 * time.Second)
	select {
	case <-done:
	case <-time.After(time.Second):
		t.Fatal("sleep did not return after sufficient advance")
	}
}

func TestManualPartialAdvanceKeepsWaiting(t *testing.T) {
	c := NewManual(time.Unix(0, 0))
	ch := c.After(10 * time.Second)
	c.Advance(4 * time.Second)
	select {
	case <-ch:
		t.Fatal("fired early")
	default:
	}
	c.Advance(6 * time.Second)
	select {
	case at := <-ch:
		if got := at.Sub(time.Unix(0, 0)); got != 10*time.Second {
			t.Fatalf("fired at +%v, want +10s", got)
		}
	case <-time.After(time.Second):
		t.Fatal("never fired")
	}
}

func TestManualAfterZeroFiresImmediately(t *testing.T) {
	c := NewManual(time.Unix(0, 0))
	select {
	case <-c.After(0):
	default:
		t.Fatal("After(0) should be immediately ready")
	}
}

func TestManualManySleepersReleasedTogether(t *testing.T) {
	c := NewManual(time.Unix(0, 0))
	const n = 32
	var wg sync.WaitGroup
	wg.Add(n)
	for i := 0; i < n; i++ {
		d := time.Duration(i+1) * time.Second
		go func() {
			defer wg.Done()
			c.Sleep(d)
		}()
	}
	for c.Pending() < n {
		time.Sleep(time.Millisecond)
	}
	c.Advance(time.Duration(n) * time.Second)
	done := make(chan struct{})
	go func() { wg.Wait(); close(done) }()
	select {
	case <-done:
	case <-time.After(2 * time.Second):
		t.Fatalf("%d sleepers still pending after full advance", c.Pending())
	}
}
