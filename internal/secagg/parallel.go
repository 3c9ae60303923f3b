package secagg

import (
	"encoding/binary"
	"fmt"
	"runtime"

	"repro/internal/engine"
	"repro/internal/field"
	"repro/internal/prg"
	"repro/internal/ring"
	"repro/internal/shamir"
)

// maskTask is one independent mask expansion, as data: the stream is keyed
// from client id's self-mask seed (self) or from the pair (id, peer), and
// its expansion folds into the destination with sign (±1).
type maskTask struct {
	id, peer uint64
	sign     int8
	self     bool
}

// applyMaskTasks accumulates Σ sign_i·PRG_i straight into dst — the
// server's masked sum — reading every stream from keystream byte window on
// (the sub-round's mask window, Config.maskWindow): resolveMasks, then
// expandMasks, so dst is untouched on error. A client runs the two halves
// itself, to keep the resolved list on its deal (Client.masks).
func applyMaskTasks(dst ring.Vector, tasks []maskTask, window uint64, stream func(maskTask) (*prg.Stream, error)) error {
	masks, err := resolveMasks(tasks, window, stream)
	if err != nil {
		return err
	}
	return expandMasks(dst, masks)
}

// resolveMasks finds or builds every task's stream on engine.ForEach,
// stream (the caller's one resolver: an X25519 agreement, a cache lookup)
// running exactly once per task, and returns the masks aimed at window. A
// failing stream stops further claims — the round is aborting, no point
// burning key agreements — and its error is returned.
func resolveMasks(tasks []maskTask, window uint64, stream func(maskTask) (*prg.Stream, error)) ([]ring.Mask, error) {
	masks := make([]ring.Mask, len(tasks))
	err := engine.ForEach(len(tasks), func(i int) error {
		s, err := stream(tasks[i])
		masks[i] = ring.Mask{Stream: s, Sign: int(tasks[i].sign), Off: window}
		return err
	})
	if err != nil {
		return nil, err
	}
	return masks, nil
}

// expandMasks accumulates Σ sign_i·PRG_i of masks into dst. The coordinate
// range splits at multiples of ring.MaskBlockLen into at most GOMAXPROCS
// ranges on engine.ForEach, each running the many-stream kernel: dst is
// read and written once however many masks there are, and nothing
// dim-sized is allocated. The range at 0 draws from the streams themselves
// (ring.MaskManyInPlace), so one block — a chunked round's 1–2k
// coordinates — is a single range on the calling goroutine that leaves
// every stream where the next chunk's window starts. Mask additions
// commute in ℤ_{2^b} and the ranges are disjoint, so the result does not
// depend on the worker count.
func expandMasks(dst ring.Vector, masks []ring.Mask) error {
	block := ring.MaskBlockLen(dst.Bits)
	blocks := (dst.Len() + block - 1) / block
	ranges := min(runtime.GOMAXPROCS(0), blocks)
	return engine.ForEach(ranges, func(r int) error {
		lo := blocks * r / ranges * block
		hi := min(blocks*(r+1)/ranges*block, dst.Len())
		return dst.MaskManyInPlace(masks, lo, hi)
	})
}

// reconstructGrouped recovers one secret per id, batching ids whose share
// lists present the same abscissa cohort so the Lagrange coefficients are
// computed once per cohort rather than once per id. Under the complete
// graph every live client's self-seed shares come from the same survivor
// set, collapsing |U3| reconstructions into a single coefficient pass;
// under a SecAgg+ graph each neighborhood cohort batches separately.
func reconstructGrouped(ids []uint64, sharesOf func(uint64) []shamir.Share, t int) (map[uint64]field.Element, error) {
	// A cohort's key is its first t abscissas packed into one reused
	// buffer; the lookup converts without copying, and only a new cohort's
	// insert makes its key string.
	groups := make(map[string]int) // key → index in cohorts
	var cohorts [][]uint64
	key := make([]byte, 8*t)
	for _, id := range ids {
		shares := sharesOf(id)
		if len(shares) < t {
			return nil, fmt.Errorf("secagg: client %d: %w (have %d, need %d)",
				id, shamir.ErrTooFewShares, len(shares), t)
		}
		for i, s := range shares[:t] {
			binary.LittleEndian.PutUint64(key[8*i:], s.X.Uint64())
		}
		if g, ok := groups[string(key)]; ok {
			cohorts[g] = append(cohorts[g], id)
		} else {
			groups[string(key)] = len(cohorts)
			cohorts = append(cohorts, []uint64{id})
		}
	}
	out := make(map[uint64]field.Element, len(ids))
	for _, members := range cohorts {
		sets := make([][]shamir.Share, len(members))
		for i, id := range members {
			sets[i] = sharesOf(id)
		}
		secrets, err := shamir.ReconstructBatch(sets, t)
		if err != nil {
			return nil, err
		}
		for i, id := range members {
			out[id] = secrets[i]
		}
	}
	return out, nil
}
