package rotor

import (
	"cmp"
	"slices"

	"uba/internal/ids"
)

// echoTally counts, per candidate, the distinct senders of the echoes
// received in one rotor window. Each candidate's senders are a bitset
// over sender bits: the sender's dense slot in the owner's frozen census
// when there is one, otherwise a number given on first sight that
// outlives windows. Recording an echo is one bit test, and a window
// costs a few words per candidate. Rows and their bitsets are recycled
// across windows.
//
// Finding a candidate's row rides on an order the round engine
// guarantees: it sorts each sender's messages by encoding, and an inbox
// holds each sender's messages back to back. Every sender's echoes
// therefore arrive in one common order — encoding order, which is not id
// order, since the candidate is encoded little-endian. The tally
// remembers that order as a cursor: for every row, the row that followed
// it in the last sender's run (succ), and the row that began that run
// (head). add first tries the row the cursor predicts and consults the
// row map only on a miss — a candidate this window has not seen, or a
// sender whose echoes skip or reorder rows — and a miss re-points the
// cursor, so senders that echo the same candidates cost no map lookups.
// A prediction is always checked against the row's candidate, so an
// inbox in any other order is counted just as correctly, only slower.
type echoTally struct {
	sender map[ids.ID]int // sender -> bit number, without a census
	row    map[ids.ID]int // candidate -> row, this window
	cands  []ids.ID       // row -> candidate
	counts []int          // row -> distinct senders
	bits   [][]uint64     // row -> sender bitset; rows past len(cands) are cleared spares
	order  []int          // scratch for byCandidate

	// The cursor: succ[r] is the row that followed r in the last run
	// (-1 if none), head the row that began it (-1 if none), prev the
	// row the current run hit last (-1 at its start).
	succ []int
	head int
	prev int
	bit  int // the current sender's bit
}

// senderBit returns the bit number of sender, numbering it on first
// sight. Only a core without a frozen census numbers senders this way.
func (t *echoTally) senderBit(sender ids.ID) int {
	if t.sender == nil {
		t.sender = make(map[ids.ID]int)
	}
	b, ok := t.sender[sender]
	if !ok {
		b = len(t.sender)
		t.sender[sender] = b
	}
	return b
}

// begin starts a run of messages from the sender with the given bit.
func (t *echoTally) begin(bit int) {
	t.bit, t.prev = bit, -1
}

// add records an echo for candidate from the current sender.
func (t *echoTally) add(candidate ids.ID) {
	r := t.head
	if t.prev >= 0 {
		r = t.succ[t.prev]
	}
	if r < 0 || r >= len(t.cands) || t.cands[r] != candidate {
		r = t.rowOf(candidate)
	}
	if t.prev < 0 {
		t.head = r
	} else {
		t.succ[t.prev] = r
	}
	t.prev = r
	w, mask := t.bit>>6, uint64(1)<<(t.bit&63)
	set := t.bits[r]
	if w >= len(set) {
		set = append(set, make([]uint64, w+1-len(set))...)
		t.bits[r] = set
	}
	if set[w]&mask == 0 {
		set[w] |= mask
		t.counts[r]++
	}
}

// rowOf returns candidate's row, making one if the window has not seen
// the candidate.
func (t *echoTally) rowOf(candidate ids.ID) int {
	if r, ok := t.row[candidate]; ok {
		return r
	}
	if t.row == nil {
		t.row = make(map[ids.ID]int)
	}
	r := len(t.cands)
	t.row[candidate] = r
	t.cands = append(t.cands, candidate)
	t.counts = append(t.counts, 0)
	t.succ = append(t.succ, -1)
	if r == len(t.bits) {
		t.bits = append(t.bits, nil)
	}
	return r
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
	t.succ = t.succ[:0]
	t.head = -1
}
