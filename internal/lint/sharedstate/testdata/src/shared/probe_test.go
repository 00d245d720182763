// Test helpers implementing Step run under the same round pipeline:
// _test.go files get no exemption from the isolation contract.
package shared

import "simnet"

type probe struct{}

func (p *probe) Step(env *simnet.RoundEnv) {
	counter = env.Round // want `Step writes package-level variable counter`
}
