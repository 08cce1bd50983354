package closedloop

import (
	"errors"
	"fmt"
	"sync/atomic"
	"testing"
	"time"

	"iomodels/internal/server"
)

// fake is a client that needs no server: it records the j it ran. Only its
// own goroutine touches it while Run runs.
type fake struct {
	i    int
	ran  map[int]int  // j -> completed runs
	shed map[int]bool // j -> shed once already
}

func dialFakes(t *testing.T, k int) *Clients[*fake] {
	t.Helper()
	cs, err := Dial(k, func(i int) (*fake, func(), error) {
		return &fake{i: i, ran: map[int]int{}, shed: map[int]bool{}}, func() {}, nil
	})
	if err != nil {
		t.Fatal(err)
	}
	return cs
}

func TestBackoffSequence(t *testing.T) {
	want := []time.Duration{200 * time.Microsecond, 400 * time.Microsecond, 800 * time.Microsecond,
		1600 * time.Microsecond, 3200 * time.Microsecond, 6400 * time.Microsecond,
		12800 * time.Microsecond, 25600 * time.Microsecond, 50 * time.Millisecond, 50 * time.Millisecond}
	var d time.Duration
	for step, w := range want {
		if d = Backoff(d); d != w {
			t.Fatalf("step %d: backoff %v, want %v", step, d, w)
		}
	}
}

func TestBusyRetriesSameSlot(t *testing.T) {
	const k, n = 4, 50
	cs := dialFakes(t, k)
	defer cs.Close()
	var attempts atomic.Int64
	res, err := cs.Run(n, nil, func(c *fake, i, j int) (int, error) {
		attempts.Add(1)
		if c.i != i {
			return 0, fmt.Errorf("client %d driven as %d", c.i, i)
		}
		// Every third slot is shed once, wrapped as the clients wrap errors.
		if j%3 == 0 && !c.shed[j] {
			c.shed[j] = true
			return 0, fmt.Errorf("get: %w", server.ErrBusy)
		}
		c.ran[j]++
		return j % 2, nil
	})
	if err != nil {
		t.Fatal(err)
	}
	shedPer := (n + 2) / 3
	if res.Shed != int64(k*shedPer) {
		t.Fatalf("shed %d, want %d", res.Shed, k*shedPer)
	}
	if got := attempts.Load(); got != int64(k*(n+shedPer)) {
		t.Fatalf("%d attempts, want %d", got, k*(n+shedPer))
	}
	for _, c := range cs.Conns {
		for j := 0; j < n; j++ {
			if c.ran[j] != 1 {
				t.Fatalf("client %d ran slot %d %d times", c.i, j, c.ran[j])
			}
		}
	}
	if len(res.Hists) != 2 || res.Hist(0).Count() != k*n/2 || res.Hist(1).Count() != k*n/2 {
		t.Fatalf("class counts %d, %d over %d classes, want %d each", res.Hist(0).Count(), res.Hist(1).Count(), len(res.Hists), k*n/2)
	}
	if res.Hist(2).Count() != 0 {
		t.Fatal("an unused class has samples")
	}
}

func TestErrorStopsOnlyItsClient(t *testing.T) {
	const k, n = 3, 40
	cs := dialFakes(t, k)
	defer cs.Close()
	boom := errors.New("boom")
	res, err := cs.Run(n, nil, func(c *fake, i, j int) (int, error) {
		if i == 1 && j == 5 {
			return 0, boom
		}
		if i != 1 {
			time.Sleep(50 * time.Microsecond) // finish after client 1 has failed
		}
		c.ran[j]++
		return 0, nil
	})
	if !errors.Is(err, boom) {
		t.Fatalf("Run returned %v, want boom", err)
	}
	for _, c := range cs.Conns {
		want := n
		if c.i == 1 {
			want = 5
		}
		if len(c.ran) != want {
			t.Fatalf("client %d ran %d ops, want %d", c.i, len(c.ran), want)
		}
	}
	if got := res.Hist(0).Count(); got != int64(2*n+5) {
		t.Fatalf("%d ops timed, want %d", got, 2*n+5)
	}
}

func TestRunUntilStop(t *testing.T) {
	cs := dialFakes(t, 2)
	defer cs.Close()
	stop := make(chan struct{})
	var ops atomic.Int64
	done := make(chan error, 1)
	go func() {
		_, err := cs.Run(-1, stop, func(*fake, int, int) (int, error) {
			if ops.Add(1) == 100 {
				close(stop)
			}
			return 0, nil
		})
		done <- err
	}()
	select {
	case err := <-done:
		if err != nil {
			t.Fatal(err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("Run did not return after stop closed")
	}
	if ops.Load() < 100 {
		t.Fatalf("%d ops before stop", ops.Load())
	}
}

func TestDialAllBeforeRun(t *testing.T) {
	const k = 5
	var dialed atomic.Int64
	cs, err := Dial(k, func(i int) (*fake, func(), error) {
		dialed.Add(1)
		return &fake{i: i}, func() {}, nil
	})
	if err != nil {
		t.Fatal(err)
	}
	defer cs.Close()
	if _, err := cs.Run(1, nil, func(*fake, int, int) (int, error) {
		if got := dialed.Load(); got != k {
			return 0, fmt.Errorf("an op ran with %d of %d clients dialed", got, k)
		}
		return 0, nil
	}); err != nil {
		t.Fatal(err)
	}
}

func TestFailedDialClosesTheOpened(t *testing.T) {
	const k = 4
	closed := make([]bool, k)
	boom := errors.New("refused")
	cs, err := Dial(k, func(i int) (*fake, func(), error) {
		if i == k-1 {
			return nil, nil, boom
		}
		return &fake{i: i}, func() { closed[i] = true }, nil
	})
	if cs != nil || !errors.Is(err, boom) {
		t.Fatalf("Dial = %v, %v; want nil, refused", cs, err)
	}
	for i := 0; i < k-1; i++ {
		if !closed[i] {
			t.Fatalf("client %d left open", i)
		}
	}
}
