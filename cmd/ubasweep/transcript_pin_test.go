package main

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"testing"
)

// pinnedChaosDigest is the SHA-256 of the text output of
//
//	ubasweep -chaos -faults byzantine -seeds 2 -jobs 1
//
// — every arena under Byzantine fault plans, with the oracle verdicts,
// violation details and shrunk repros the campaign prints. An engine
// refactor must leave it byte-identical; a deliberate behaviour change
// updates it in the same change, with the reason.
const pinnedChaosDigest = "e521ccb2e8658d324caf77c6cfc4cf573a22ad95aec47521e970040dacafa36f"

// TestPinnedChaosCampaignOutput recomputes the pinned campaign output
// and compares its digest. At -jobs 1 cells complete in submission
// order, so the whole stream — progress lines included — is
// deterministic.
func TestPinnedChaosCampaignOutput(t *testing.T) {
	if testing.Short() {
		t.Skip("runs the full six-arena fault campaign")
	}
	t.Parallel()
	var buf bytes.Buffer
	if err := run([]string{"-chaos", "-faults", "byzantine", "-seeds", "2", "-jobs", "1"}, &buf); err != nil {
		t.Fatalf("chaos campaign: %v\n%s", err, buf.String())
	}
	sum := sha256.Sum256(buf.Bytes())
	if got := hex.EncodeToString(sum[:]); got != pinnedChaosDigest {
		t.Errorf("campaign output digest = %s, want %s (%d bytes):\n%s", got, pinnedChaosDigest, buf.Len(), buf.String())
	}
}
