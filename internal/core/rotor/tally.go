package rotor

import (
	"cmp"
	"slices"

	"uba/internal/ids"
)

// echoTally counts, per candidate, the distinct senders of the echoes
// received in one rotor window. Senders are numbered on first sight —
// the numbering outlives windows — and each candidate's senders are a
// bitset over those numbers, so recording an echo is one bit test and
// a window costs a few words per candidate instead of one hash set per
// candidate. Rows and their bitsets are recycled across windows.
type echoTally struct {
	sender map[ids.ID]int // sender -> bit number
	row    map[ids.ID]int // candidate -> row, this window
	cands  []ids.ID       // row -> candidate
	counts []int          // row -> distinct senders
	bits   [][]uint64     // row -> sender bitset; rows past len(cands) are cleared spares
	order  []int          // scratch for byCandidate
}

func newEchoTally() echoTally {
	return echoTally{sender: make(map[ids.ID]int), row: make(map[ids.ID]int)}
}

// senderBit returns the bit number of sender, numbering it on first
// sight.
func (t *echoTally) senderBit(sender ids.ID) int {
	b, ok := t.sender[sender]
	if !ok {
		b = len(t.sender)
		t.sender[sender] = b
	}
	return b
}

// add records an echo for candidate from the sender numbered bit.
func (t *echoTally) add(candidate ids.ID, bit int) {
	r, ok := t.row[candidate]
	if !ok {
		r = len(t.cands)
		t.row[candidate] = r
		t.cands = append(t.cands, candidate)
		t.counts = append(t.counts, 0)
		if r == len(t.bits) {
			t.bits = append(t.bits, nil)
		}
	}
	w, mask := bit>>6, uint64(1)<<(bit&63)
	set := t.bits[r]
	for len(set) <= w {
		set = append(set, 0)
	}
	t.bits[r] = set
	if set[w]&mask == 0 {
		set[w] |= mask
		t.counts[r]++
	}
}

// byCandidate returns the window's rows in ascending candidate order.
// The slice is scratch, valid until the next call.
func (t *echoTally) byCandidate() []int {
	t.order = t.order[:0]
	for r := range t.cands {
		t.order = append(t.order, r)
	}
	slices.SortFunc(t.order, func(a, b int) int { return cmp.Compare(t.cands[a], t.cands[b]) })
	return t.order
}

// reset empties the window, keeping the sender numbering and every
// row's bitset capacity for the next one.
func (t *echoTally) reset() {
	for r := range t.cands {
		clear(t.bits[r])
	}
	clear(t.row)
	t.cands = t.cands[:0]
	t.counts = t.counts[:0]
}
