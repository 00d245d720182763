package census

import "uba/internal/wire"

// smallValues is how many distinct values a Tally finds by linear scan.
// Every tally of the consensus-n128, ordering-n32 and campaign-faults
// perfbench workloads counts at most two distinct values, and a scan
// over that few beats a map probe per vote: a map-only Tally measured
// slower end to end (median call time +4% on consensus-n128, +8.5% on
// ordering-n32). A Byzantine censused sender may vote for any number of
// distinct values, and every one counts, so values past this many are
// found through an index instead: a vote then costs O(1) whatever the
// number of distinct values, never a scan over all of them.
const smallValues = 8

// Tally is the quorum-counting kernel of Algorithms 3 and 5: it counts
// one message family's votes by value for one round, over the dense slots
// of a frozen census. Every censused slot that voted or sent a
// no-quorum marker is present; Fill substitutes a value for the rest;
// Best reports the leading value as a Quorum.
//
// A Tally is scratch: Reset starts a new round, and every buffer is
// reused, so a steady-state round allocates nothing. The zero value is
// ready for Reset.
type Tally struct {
	n       int
	present []uint64 // slot bitset: who voted or sent a marker
	heard   int      // distinct present slots
	total   int      // votes counted, fills included

	// The distinct values counted this round, in first-seen order.
	keys   []wire.ValueKey
	vals   []wire.Value // the value last counted under keys[i]
	counts []int
	// index finds the values past the first smallValues.
	index map[wire.ValueKey]int
}

// Reset starts a tally over a frozen census of n members: slots are then
// in [0, n).
func (t *Tally) Reset(n int) {
	t.n, t.heard, t.total = n, 0, 0
	words := (n + 63) / 64
	if cap(t.present) < words {
		t.present = make([]uint64, words)
	}
	t.present = t.present[:words]
	clear(t.present)
	if len(t.keys) > smallValues {
		clear(t.index)
	}
	if t.keys == nil {
		t.keys = make([]wire.ValueKey, 0, smallValues)
		t.vals = make([]wire.Value, 0, smallValues)
		t.counts = make([]int, 0, smallValues)
	}
	t.keys, t.vals, t.counts = t.keys[:0], t.vals[:0], t.counts[:0]
}

// Mark records slot as present without an opinion: a no-quorum marker.
func (t *Tally) Mark(slot int) {
	w, bit := slot>>6, uint64(1)<<(slot&63)
	if t.present[w]&bit == 0 {
		t.present[w] |= bit
		t.heard++
	}
}

// Vote counts one vote for x from slot. A slot that votes for several
// values (a Byzantine double vote) counts for each, but is present once.
func (t *Tally) Vote(slot int, x wire.Value) {
	t.Mark(slot)
	t.add(x, 1)
}

// Missing returns how many censused slots are not present.
func (t *Tally) Missing() int { return t.n - t.heard }

// Fill applies the substitution rule: every censused slot not present
// is counted as a vote for x.
func (t *Tally) Fill(x wire.Value) {
	if missing := t.Missing(); missing > 0 {
		t.add(x, missing)
	}
}

func (t *Tally) add(x wire.Value, w int) {
	t.total += w
	i := t.find(x.Key())
	if i < 0 {
		i = len(t.keys)
		if i >= smallValues {
			if t.index == nil {
				t.index = make(map[wire.ValueKey]int)
			}
			t.index[x.Key()] = i
		}
		t.keys = append(t.keys, x.Key())
		t.vals = append(t.vals, x)
		t.counts = append(t.counts, 0)
	}
	t.counts[i] += w
	t.vals[i] = x
}

// find returns the position of key among the values counted, or -1.
func (t *Tally) find(key wire.ValueKey) int {
	for i, k := range t.keys[:min(len(t.keys), smallValues)] {
		if k == key {
			return i
		}
	}
	if len(t.keys) > smallValues {
		if i, ok := t.index[key]; ok {
			return i
		}
	}
	return -1
}

// Total returns the number of votes counted, fills included.
func (t *Tally) Total() int { return t.total }

// Count returns the votes counted for x, fills included.
func (t *Tally) Count(x wire.Value) int {
	if i := t.find(x.Key()); i >= 0 {
		return t.counts[i]
	}
	return 0
}

// Best returns the value with the most votes, ties going to the smaller
// value (wire.Value.Less) so every node resolves identically. With no
// votes at all it returns the zero value with count 0.
func (t *Tally) Best() Quorum {
	q := Quorum{N: t.n}
	for i, c := range t.counts {
		if c > q.Count || (c == q.Count && t.vals[i].Less(q.X)) {
			q.X, q.Count = t.vals[i], c
		}
	}
	return q
}

// Quorum is a tally's leading value, the votes it got and the frozen n_v
// they were counted against. Its predicates are the paper's thresholds.
type Quorum struct {
	X     wire.Value
	Count int
	N     int
}

// AtLeastThird reports that the leading value got at least n_v/3 votes.
func (q Quorum) AtLeastThird() bool { return AtLeastThird(q.Count, q.N) }

// AtLeastTwoThirds reports that the leading value got at least 2n_v/3
// votes.
func (q Quorum) AtLeastTwoThirds() bool { return AtLeastTwoThirds(q.Count, q.N) }

// LessThanThird reports that no value got n_v/3 votes.
func (q Quorum) LessThanThird() bool { return LessThanThird(q.Count, q.N) }
