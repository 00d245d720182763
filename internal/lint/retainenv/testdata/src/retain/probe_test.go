// Test helpers implementing Step run under the same round pipeline and
// recycled buffers as production code: _test.go files get no exemption
// from the buffer-recycling contract.
package retain

import "simnet"

type probe struct{ inbox simnet.Inbox }

func (p *probe) Step(env *simnet.RoundEnv) {
	p.inbox = env.Inbox // want `round-scoped env\.Inbox stored in field inbox`
}
