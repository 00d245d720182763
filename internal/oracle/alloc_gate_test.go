package oracle

import (
	"fmt"
	"testing"

	"uba/internal/simnet"
)

// TestSuiteRoundZeroAlloc extends the engine's zero-alloc route gate
// (simnet's TestRouteHotPathZeroAlloc) to a real observer: a Suite
// holding the complexity oracle every facade run attaches. Gathering
// the round's view and accounting and sweeping the suite must not
// cost a steady-state round a single allocation. It lives here, not in
// simnet, because simnet cannot import oracle.
func TestSuiteRoundZeroAlloc(t *testing.T) {
	for _, workers := range []int{1, 4} {
		for _, n := range []int{1024, 4096} {
			t.Run(fmt.Sprintf("workers=%d/n=%d", workers, n), func(t *testing.T) {
				rp, err := simnet.NewRoundPhases(n, workers)
				if err != nil {
					t.Fatal(err)
				}
				defer rp.Close()
				suite := NewSuite(NewComplexityFor("relbcast", 0))
				rp.SetObserver(suite)
				for i := 0; i < 3; i++ {
					rp.RouteOnly()
				}
				if avg := testing.AllocsPerRun(200, rp.RouteOnly); avg != 0 {
					t.Errorf("observed route at n=%d (workers=%d) allocates %.2f times per round, want 0", n, workers, avg)
				}
				// A fired oracle leaves the sweep; the chatter fixture
				// stays within relbcast's contract, so every measured
				// round ran the complexity check.
				if suite.Failed() {
					t.Fatalf("complexity oracle fired on the chatter fixture: %+v", suite.Violations())
				}
			})
		}
	}
}
