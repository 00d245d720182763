package simnet

import "uba/internal/simnet/sched"

// forceWorkers equips n with a private w-worker scheduler and a
// matching worker cap regardless of GOMAXPROCS, so tests exercise real
// sharded routing and pooled stepping on any host (CI race machines
// included); w = 1 is the inline baseline. Callers must Close the
// network, which also closes the private scheduler.
func (n *Network) forceWorkers(w int) {
	n.cfg.Workers = w
	n.sched = sched.New(w)
	n.ownsSched = true
}
