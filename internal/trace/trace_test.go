package trace

import (
	"sync"
	"testing"
)

func TestCollectorAccumulates(t *testing.T) {
	t.Parallel()
	var c Collector
	c.AddRound(1, 1, 0, 2, 15)
	c.AddRound(2, 1, 1, 1, 7)

	r := c.Report()
	if r.Rounds != 2 {
		t.Fatalf("Rounds = %d, want 2", r.Rounds)
	}
	if r.Sends != 3 || r.Broadcasts != 2 || r.Unicasts != 1 || r.Deliveries != 3 || r.Bytes != 22 {
		t.Fatalf("totals = %+v", r)
	}
	if len(r.PerRound) != 2 {
		t.Fatalf("PerRound len = %d", len(r.PerRound))
	}
	if r.PerRound[0].Deliveries != 2 || r.PerRound[0].Bytes != 15 {
		t.Fatalf("round 1 stats = %+v", r.PerRound[0])
	}
	if r.PerRound[1].Sends != 2 || r.PerRound[1].Bytes != 7 {
		t.Fatalf("round 2 stats = %+v", r.PerRound[1])
	}
}

func TestReportIsACopy(t *testing.T) {
	t.Parallel()
	var c Collector
	c.AddRound(1, 1, 0, 1, 1)
	r := c.Report()
	r.PerRound[0].Bytes = 999
	if c.Report().PerRound[0].Bytes == 999 {
		t.Fatal("Report leaked internal slice")
	}
}

func TestMessagesPerNodePerRound(t *testing.T) {
	t.Parallel()
	r := Report{Rounds: 4, Deliveries: 80}
	if got := r.MessagesPerNodePerRound(10); got != 2 {
		t.Fatalf("got %v, want 2", got)
	}
	if got := r.MessagesPerNodePerRound(0); got != 0 {
		t.Fatalf("zero nodes: got %v", got)
	}
	if got := (Report{}).MessagesPerNodePerRound(5); got != 0 {
		t.Fatalf("zero rounds: got %v", got)
	}
}

func TestReportString(t *testing.T) {
	t.Parallel()
	r := Report{Rounds: 3, Sends: 4, Deliveries: 5, Bytes: 6}
	want := "rounds=3 sends=4 deliveries=5 bytes=6"
	if r.String() != want {
		t.Fatalf("String() = %q, want %q", r.String(), want)
	}
}

func TestCollectorConcurrentRecording(t *testing.T) {
	t.Parallel()
	var c Collector
	const workers, each = 8, 1000
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < each; i++ {
				c.AddRound(1, 1, 0, 1, 2)
			}
		}()
	}
	wg.Wait()
	r := c.Report()
	if r.Sends != workers*each || len(r.PerRound) != workers*each {
		t.Fatalf("Sends = %d PerRound = %d, want %d", r.Sends, len(r.PerRound), workers*each)
	}
	if r.Deliveries != workers*each || r.Bytes != 2*workers*each {
		t.Fatalf("Deliveries = %d Bytes = %d", r.Deliveries, r.Bytes)
	}
}
