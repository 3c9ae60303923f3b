package combine

import (
	"errors"
	"testing"

	"repro/internal/ring"
)

func vec(bits uint, data ...uint64) ring.Vector {
	return ring.Vector{Bits: bits, Data: data}
}

func partial(shard, round uint64, data ...uint64) Partial {
	return Partial{
		Shard: shard, Round: round, Sum: vec(16, data...),
		Survivors: []uint64{shard * 10, shard*10 + 1}, Dropped: []uint64{shard*10 + 2},
	}
}

func TestCombinerFoldsAllShards(t *testing.T) {
	c, err := New(7, []uint64{0, 1, 2}, 0)
	if err != nil {
		t.Fatal(err)
	}
	for s := uint64(0); s < 3; s++ {
		p := partial(s, 7, s+1, s+2)
		p.RemovedComponents = []int{int(s)}
		if err := c.Add(p); err != nil {
			t.Fatalf("add shard %d: %v", s, err)
		}
	}
	if !c.QuorumMet() {
		t.Fatal("quorum not met with all partials")
	}
	r, err := c.Seal()
	if err != nil {
		t.Fatal(err)
	}
	if r.Degraded || len(r.Missing) != 0 {
		t.Fatalf("full fold reported degraded: %+v", r)
	}
	if want := []uint64{6, 9}; r.Sum.Data[0] != want[0] || r.Sum.Data[1] != want[1] {
		t.Fatalf("sum = %v, want %v", r.Sum.Data, want)
	}
	if len(r.Survivors) != 6 || r.Survivors[0] != 0 || r.Survivors[5] != 21 {
		t.Fatalf("merged survivors = %v", r.Survivors)
	}
	if len(r.RemovedComponents) != 3 || r.RemovedComponents[2][0] != 2 {
		t.Fatalf("removal accounting = %v", r.RemovedComponents)
	}
}

func TestCombinerDegradedAtQuorum(t *testing.T) {
	c, err := New(3, []uint64{0, 1, 2, 3}, 3)
	if err != nil {
		t.Fatal(err)
	}
	for _, s := range []uint64{0, 1} {
		if err := c.Add(partial(s, 3, 5)); err != nil {
			t.Fatal(err)
		}
	}
	if c.QuorumMet() {
		t.Fatal("quorum met at 2 of 3")
	}
	if _, err := c.Seal(); err == nil {
		t.Fatal("seal below quorum succeeded")
	}
	if err := c.Add(partial(3, 3, 5)); err != nil {
		t.Fatal(err)
	}
	if !c.QuorumMet() {
		t.Fatal("quorum not met at 3 of 3")
	}
	r, err := c.Seal()
	if err != nil {
		t.Fatal(err)
	}
	if !r.Degraded {
		t.Fatal("missing shard did not degrade the report")
	}
	if len(r.Missing) != 1 || r.Missing[0] != 2 {
		t.Fatalf("missing = %v, want [2]", r.Missing)
	}
	if len(r.Contributing) != 3 || r.Sum.Data[0] != 15 {
		t.Fatalf("contributing = %v sum = %v", r.Contributing, r.Sum.Data)
	}
}

func TestCombinerRejectsDupStaleUnknown(t *testing.T) {
	c, err := New(5, []uint64{0, 1}, 0)
	if err != nil {
		t.Fatal(err)
	}
	if err := c.Add(partial(0, 4, 1)); !errors.Is(err, ErrStalePartial) {
		t.Fatalf("stale partial: %v", err)
	}
	if err := c.Add(partial(9, 5, 1)); !errors.Is(err, ErrUnknownShard) {
		t.Fatalf("unknown shard: %v", err)
	}
	if err := c.Add(partial(0, 5, 1)); err != nil {
		t.Fatal(err)
	}
	if err := c.Add(partial(0, 5, 2)); !errors.Is(err, ErrDuplicatePartial) {
		t.Fatalf("duplicate partial: %v", err)
	}
	// The rejected duplicate must not have clobbered the first fold.
	if err := c.Add(partial(1, 5, 10)); err != nil {
		t.Fatal(err)
	}
	r, err := c.Seal()
	if err != nil {
		t.Fatal(err)
	}
	if r.Sum.Data[0] != 11 {
		t.Fatalf("sum = %d, want 11 (duplicate must be discarded)", r.Sum.Data[0])
	}
}

// TestCombinerSingleShardDegenerate pins the S=1 plan: a one-shard
// topology is legal (the flat deployment expressed through the sharded
// machinery) and folds to exactly that shard's partial, clean.
func TestCombinerSingleShardDegenerate(t *testing.T) {
	c, err := New(9, []uint64{0}, 0)
	if err != nil {
		t.Fatal(err)
	}
	if c.QuorumMet() {
		t.Fatal("quorum met with no partials")
	}
	if err := c.Add(partial(0, 9, 4, 5)); err != nil {
		t.Fatal(err)
	}
	r, err := c.Seal()
	if err != nil {
		t.Fatal(err)
	}
	if r.Degraded || len(r.Missing) != 0 || len(r.Contributing) != 1 {
		t.Fatalf("degenerate fold: %+v", r)
	}
	if r.Sum.Data[0] != 4 || r.Sum.Data[1] != 5 {
		t.Fatalf("sum = %v, want the single partial verbatim", r.Sum.Data)
	}
}

// TestCombinerQuorumEqualsShards pins the strictest quorum: with
// quorum == S every shard is load-bearing — one missing partial aborts,
// and only the full set seals (then necessarily clean).
func TestCombinerQuorumEqualsShards(t *testing.T) {
	c, err := New(6, []uint64{0, 1, 2}, 3)
	if err != nil {
		t.Fatal(err)
	}
	for _, s := range []uint64{0, 1} {
		if err := c.Add(partial(s, 6, 1)); err != nil {
			t.Fatal(err)
		}
	}
	if c.QuorumMet() {
		t.Fatal("quorum met at 2 of 3 with quorum=S")
	}
	if _, err := c.Seal(); err == nil {
		t.Fatal("seal succeeded one shard short of a full quorum")
	}
	if err := c.Add(partial(2, 6, 1)); err != nil {
		t.Fatal(err)
	}
	r, err := c.Seal()
	if err != nil {
		t.Fatal(err)
	}
	if r.Degraded || len(r.Missing) != 0 {
		t.Fatalf("full-quorum seal degraded: %+v", r)
	}
}

// TestCombinerAllShardsDead pins the abort path: zero partials can never
// seal, whatever the quorum — there is nothing to fold.
func TestCombinerAllShardsDead(t *testing.T) {
	for _, quorum := range []int{0, 1, 2} {
		c, err := New(8, []uint64{0, 1}, quorum)
		if err != nil {
			t.Fatal(err)
		}
		if c.QuorumMet() {
			t.Fatalf("quorum %d met with zero partials", quorum)
		}
		if _, err := c.Seal(); err == nil {
			t.Fatalf("quorum %d sealed an empty round", quorum)
		}
	}
}

// TestCombinerRejectsPartialAfterSeal pins the post-seal path: the
// report is final, so a late partial — even a first-time, otherwise
// valid one — is a named ErrRoundSealed, and a re-Seal is not silently
// different from the shipped report.
func TestCombinerRejectsPartialAfterSeal(t *testing.T) {
	c, err := New(4, []uint64{0, 1}, 1)
	if err != nil {
		t.Fatal(err)
	}
	if err := c.Add(partial(0, 4, 3)); err != nil {
		t.Fatal(err)
	}
	r, err := c.Seal()
	if err != nil {
		t.Fatal(err)
	}
	if !r.Degraded || len(r.Missing) != 1 || r.Missing[0] != 1 {
		t.Fatalf("quorum-1 seal: %+v", r)
	}
	// The missing shard shows up late — and a duplicate of a folded one
	// does too. Both are ErrRoundSealed now, not ErrDuplicate/silent fold.
	if err := c.Add(partial(1, 4, 9)); !errors.Is(err, ErrRoundSealed) {
		t.Fatalf("late first partial after seal: %v, want ErrRoundSealed", err)
	}
	if err := c.Add(partial(0, 4, 3)); !errors.Is(err, ErrRoundSealed) {
		t.Fatalf("duplicate after seal: %v, want ErrRoundSealed", err)
	}
	if len(c.got) != 1 {
		t.Fatalf("post-seal adds mutated the fold: %d contributions", len(c.got))
	}
}

// TestCombinerStaleRoundsSurfaced pins the satellite fix: a stale
// partial is a named ErrStalePartial at Add, the shard and its claimed
// round are surfaced in RoundReport.StaleRounds (not a silent degrade),
// and a below-quorum abort caused by staleness says so.
func TestCombinerStaleRoundsSurfaced(t *testing.T) {
	c, err := New(12, []uint64{0, 1, 2}, 2)
	if err != nil {
		t.Fatal(err)
	}
	// Shard 2 is a round behind; shard 0 replays an even older round.
	if err := c.Add(partial(2, 11, 7)); !errors.Is(err, ErrStalePartial) {
		t.Fatalf("stale partial: %v, want ErrStalePartial", err)
	}
	if err := c.Add(partial(0, 3, 7)); !errors.Is(err, ErrStalePartial) {
		t.Fatalf("stale partial: %v, want ErrStalePartial", err)
	}
	// Shard 0 recovers with its real partial; shard 1 contributes too.
	if err := c.Add(partial(0, 12, 1)); err != nil {
		t.Fatal(err)
	}
	if err := c.Add(partial(1, 12, 2)); err != nil {
		t.Fatal(err)
	}
	r, err := c.Seal()
	if err != nil {
		t.Fatal(err)
	}
	if len(r.StaleRounds) != 2 || r.StaleRounds[2] != 11 || r.StaleRounds[0] != 3 {
		t.Fatalf("StaleRounds = %v, want {2:11 0:3}", r.StaleRounds)
	}
	if !r.Degraded || len(r.Missing) != 1 || r.Missing[0] != 2 {
		t.Fatalf("stale shard 2 not reported missing: %+v", r)
	}

	// Below quorum with stales on the books: the abort error must name
	// the stale arrivals and wrap ErrStalePartial so callers can tell
	// "dead shards" from "live shards a round behind".
	c2, err := New(20, []uint64{0, 1}, 2)
	if err != nil {
		t.Fatal(err)
	}
	if err := c2.Add(partial(0, 19, 1)); !errors.Is(err, ErrStalePartial) {
		t.Fatal(err)
	}
	_, err = c2.Seal()
	if !errors.Is(err, ErrStalePartial) {
		t.Fatalf("below-quorum seal with stales: %v, want to wrap ErrStalePartial", err)
	}

	// Below quorum with no stales stays the plain abort.
	c3, err := New(21, []uint64{0, 1}, 2)
	if err != nil {
		t.Fatal(err)
	}
	_, err = c3.Seal()
	if err == nil || errors.Is(err, ErrStalePartial) {
		t.Fatalf("below-quorum seal without stales: %v, want a plain abort", err)
	}
}

func TestCombinerRejectsGeometryMismatch(t *testing.T) {
	c, _ := New(1, []uint64{0, 1}, 0)
	if err := c.Add(Partial{Shard: 0, Round: 1, Sum: vec(16, 1, 2)}); err != nil {
		t.Fatal(err)
	}
	if err := c.Add(Partial{Shard: 1, Round: 1, Sum: vec(16, 1)}); err == nil {
		t.Fatal("dimension mismatch accepted")
	}
	if err := c.Add(Partial{Shard: 1, Round: 1, Sum: vec(8, 1, 2)}); err == nil {
		t.Fatal("ring width mismatch accepted")
	}
	if err := c.Add(Partial{Shard: 1, Round: 1}); err == nil {
		t.Fatal("empty partial accepted")
	}
}

// TestPartialRound: the header peek agrees with the full decode on a
// partial and refuses everything that is not one — another frame of the
// family, a cut header, another version.
func TestPartialRound(t *testing.T) {
	p, err := EncodePartial(Partial{Shard: 3, Round: 41, Sum: ring.NewVector(16, 4)})
	if err != nil {
		t.Fatal(err)
	}
	if round, ok := PartialRound(p); !ok || round != 41 {
		t.Fatalf("PartialRound = %d, %v; want 41, true", round, ok)
	}
	wrongVersion := append([]byte(nil), p...)
	wrongVersion[2]++
	for name, bad := range map[string][]byte{
		"hello": EncodeHello(41, 3), "cut header": p[:10], "empty": nil, "wrong version": wrongVersion,
	} {
		if round, ok := PartialRound(bad); ok {
			t.Errorf("%s: accepted as a partial of round %d", name, round)
		}
	}
}
