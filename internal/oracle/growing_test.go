package oracle

import (
	"reflect"
	"testing"

	"uba/internal/ids"
)

// scriptedClaim is one claim appended to node's stream in a scripted
// round.
type scriptedClaim struct {
	node       int
	key, value string
}

// TestGrowingAgreementMatchesFullCheck replays scripted append-only claim
// streams through the incremental agreement monitor and NewAgreement side
// by side: every round both must return the same Violation (or none).
func TestGrowingAgreementMatchesFullCheck(t *testing.T) {
	t.Parallel()
	cases := []struct {
		name   string
		rounds [][]scriptedClaim
		fires  int // round the monitors fire in; 0 = never
	}{
		{
			name: "agreeing streams",
			rounds: [][]scriptedClaim{
				{{0, "a", "1"}, {2, "a", "1"}},
				{{1, "a", "1"}, {1, "b", "2"}},
				{},
				{{0, "b", "2"}, {2, "c", "3"}, {0, "c", "3"}},
			},
		},
		{
			name: "two new claims conflict in one round",
			rounds: [][]scriptedClaim{
				{{0, "a", "1"}},
				{{1, "b", "2"}, {2, "b", "3"}},
			},
			fires: 2,
		},
		{
			name: "new claim conflicts with an old one",
			rounds: [][]scriptedClaim{
				{{0, "a", "1"}, {1, "a", "1"}},
				{{1, "b", "2"}},
				{{2, "a", "9"}},
			},
			fires: 3,
		},
		{
			name: "first claimer is not the lowest-index node",
			rounds: [][]scriptedClaim{
				{{2, "a", "1"}},
				{{0, "a", "2"}},
			},
			fires: 2,
		},
		{
			// The first new claim to mismatch (node 0's b) is not the
			// first conflict in probe order (node 1's a against node 0's).
			name: "first mismatch seen is not the first in probe order",
			rounds: [][]scriptedClaim{
				{{1, "a", "1"}, {1, "b", "2"}},
				{{0, "b", "3"}, {0, "a", "4"}},
			},
			fires: 2,
		},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			t.Parallel()
			streams := make([][]Claim, 3)
			tail := func(seen []int, dst []Claim) []Claim {
				for i, s := range streams {
					dst = append(dst, s[seen[i]:]...)
					seen[i] = len(s)
				}
				return dst
			}
			full := NewAgreement("agree", func() []Claim {
				var out []Claim
				for _, s := range streams {
					out = append(out, s...)
				}
				return out
			})
			growing := newGrowingAgreement("agree", len(streams), tail)
			fired := 0
			for i, round := range tc.rounds {
				for _, c := range round {
					streams[c.node] = append(streams[c.node], Claim{
						Node: ids.ID(10 * (c.node + 1)), Key: c.key, Value: c.value,
					})
				}
				r := Round{N: i + 1}
				want, got := full.Observe(r), growing.Observe(r)
				if !reflect.DeepEqual(got, want) {
					t.Fatalf("round %d: incremental %+v, full check %+v", r.N, got, want)
				}
				if want != nil {
					fired = r.N
					break // a Suite stops observing a fired oracle
				}
			}
			if fired != tc.fires {
				t.Fatalf("fired in round %d, want %d", fired, tc.fires)
			}
		})
	}
}
