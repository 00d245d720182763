package simnet

import (
	"sync"

	"uba/internal/trace"
)

// Scratch recycling across networks. Within one Network the round
// buffers (outs, results, arenas, shard table, event scratch) are
// already reused round over round; this file extends the reuse across
// Network lifetimes, which is what campaign workloads need: a chaos
// campaign builds a fresh Network per (arena, seed) cell, and without
// recycling every cell re-grows every buffer from nil — piling
// allocator and GC pressure onto exactly the workload the shared
// scheduler lets run many-at-once. New adopts a recycled scratch set
// when one is available; Close clears and returns it. The pool is a
// sync.Pool, so concurrent jobs recycle without contention and the GC
// can still reclaim idle scratch under memory pressure.
//
// Determinism is untouched: scratch contents are overwritten (or
// explicitly sized and cleared) before every use — adoption only seeds
// capacities, never values — so a cell that inherits another cell's
// buffers produces byte-identical output to one that starts cold.

// netScratch is the recyclable allocation footprint of one Network:
// every round-scoped buffer that grows to a workload-dependent
// high-water mark. Payload-carrying slots are cleared before the set
// enters the pool, so parked scratch never pins message payloads.
type netScratch struct {
	outs         []send
	results      []stepResult
	bcastDigests []uint64
	bcastEncs    []string
	stepEvents   []trace.Event
	roundEvents  []trace.Event
	doneMask     []bool
	bcastIdx     []int32
	uniRecv      []int32
	uniSend      []int32
	uniIdx       []int32
	uniStart     []int32
	uniCursor    []int32
	bcastBlock   []Received
	uniArena     []Received
	shards       []routeShard
}

var scratchPool sync.Pool

// adoptScratch installs a recycled scratch set into a fresh Network,
// if the pool has one. Called from New; a miss just means the buffers
// grow lazily as before.
func (n *Network) adoptScratch() {
	s, _ := scratchPool.Get().(*netScratch)
	if s == nil {
		return
	}
	n.outs = s.outs
	n.results = s.results
	n.bcastDigests = s.bcastDigests
	n.bcastEncs = s.bcastEncs
	n.stepEvents = s.stepEvents
	n.roundEvents = s.roundEvents
	n.doneMask = s.doneMask
	n.bcastIdx = s.bcastIdx
	n.uniRecv = s.uniRecv
	n.uniSend = s.uniSend
	n.uniIdx = s.uniIdx
	n.uniStart = s.uniStart
	n.uniCursor = s.uniCursor
	n.bcastBlock = s.bcastBlock
	n.uniArena = s.uniArena
	n.shards = s.shards
	// Keep the emptied box for releaseScratch, so a Network's whole
	// recycle cycle allocates nothing after the first generation.
	*s = netScratch{}
	n.scratchBox = s
}

// releaseScratch clears the network's round buffers to their full
// capacity — dropping every payload, event and result reference they
// pinned — and parks them in the pool for the next Network. Called
// from Close.
//
//lint:coldpath scratch release runs once per Network, in Close
func (n *Network) releaseScratch() {
	s := n.scratchBox
	if s == nil {
		s = new(netScratch)
	}
	n.scratchBox = nil
	clear(n.outs[:cap(n.outs)])
	clear(n.results[:cap(n.results)])
	clear(n.bcastEncs[:cap(n.bcastEncs)])
	clear(n.stepEvents[:cap(n.stepEvents)])
	clear(n.roundEvents[:cap(n.roundEvents)])
	clear(n.bcastBlock[:cap(n.bcastBlock)])
	clear(n.uniArena[:cap(n.uniArena)])
	n.bcastLive, n.uniLive = 0, 0
	shards := n.shards[:cap(n.shards)]
	clear(shards)
	*s = netScratch{
		outs:         n.outs[:0],
		results:      n.results[:0],
		bcastDigests: n.bcastDigests[:0],
		bcastEncs:    n.bcastEncs[:0],
		stepEvents:   n.stepEvents[:0],
		roundEvents:  n.roundEvents[:0],
		doneMask:     n.doneMask[:0],
		bcastIdx:     n.bcastIdx[:0],
		uniRecv:      n.uniRecv[:0],
		uniSend:      n.uniSend[:0],
		uniIdx:       n.uniIdx[:0],
		uniStart:     n.uniStart[:0],
		uniCursor:    n.uniCursor[:0],
		bcastBlock:   n.bcastBlock[:0],
		uniArena:     n.uniArena[:0],
		shards:       shards[:0],
	}
	n.outs, n.results = nil, nil
	n.bcastDigests, n.bcastEncs = nil, nil
	n.stepEvents, n.roundEvents = nil, nil
	n.doneMask = nil
	n.bcastIdx, n.uniRecv, n.uniSend = nil, nil, nil
	n.uniIdx, n.uniStart, n.uniCursor = nil, nil, nil
	n.bcastBlock, n.uniArena = nil, nil
	n.shards = nil
	scratchPool.Put(s)
}
