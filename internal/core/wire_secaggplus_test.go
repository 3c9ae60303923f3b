package core

import (
	"testing"
	"time"

	"repro/internal/secagg"
	"repro/internal/secaggplus"
	"repro/internal/xnoise"
)

// TestWireRoundSecAggPlus runs the wire driver with a SecAgg+ Harary-graph
// config: masking and sharing restricted to k-regular neighborhoods, one
// dropout, XNoise enforcement — the full deployment stack of §6.4's
// "Orig+/XNoise+" columns over a real transport.
func TestWireRoundSecAggPlus(t *testing.T) {
	const n = 8
	plan := &xnoise.Plan{NumClients: n, DropoutTolerance: 2, Threshold: 5, TargetVariance: 30}
	base := secagg.Config{ClientIDs: seqIDs(n), Threshold: 5, Bits: 20, Dim: 32, XNoise: plan}
	saCfg, err := secaggplus.NewConfig(base, 6) // k = 6 < n−1: real neighborhoods
	if err != nil {
		t.Fatal(err)
	}
	if saCfg.Graph == nil {
		t.Fatal("SecAgg+ config has no graph")
	}
	rig := newWireRig(t, "memory", saCfg)
	rig.stageDeadline = 1500 * time.Millisecond
	_, res := rig.round(3, secagg.DropSchedule{6: secagg.StageMaskedInput})
	if len(res.Dropped) != 1 || res.Dropped[0] != 6 {
		t.Fatalf("dropped = %v, want [6]", res.Dropped)
	}
	// |D| = 1 < T = 2, so one component layer is removed and the residual
	// noise sits at σ²* = 30.
	rig.checkMean(res, []uint64{1, 2, 3, 4, 5, 7, 8})
}
