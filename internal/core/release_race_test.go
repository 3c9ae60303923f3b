//go:build race

package core

import (
	"context"
	"slices"
	"sync"
	"testing"

	"repro/internal/engine"
	"repro/internal/secagg"
	"repro/internal/transport"
)

// frameLog keeps every payload its connections send or receive, so a test
// can tell afterwards which of them went back to the transport: a -race
// build's transport.Release writes 0xDB over every byte it is handed.
type frameLog struct {
	mu   sync.Mutex
	kept map[int][][]byte // tag → payloads
}

func (l *frameLog) keep(tag int, p []byte) {
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.kept == nil {
		l.kept = make(map[int][][]byte)
	}
	l.kept[tag] = append(l.kept[tag], p)
}

// received hands the reader a copy of f's payload whose capacity is no
// size class of the free list — released, it is poisoned and dropped, so
// nothing can lease it again and overwrite the poison — keeps it, and
// releases the transport's own lease.
func (l *frameLog) received(f transport.Frame) transport.Frame {
	p := append(make([]byte, 0, len(f.Payload)|1), f.Payload...)
	transport.Release(f.Payload)
	f.Payload = p
	l.keep(f.Stage, p)
	return f
}

// sideLegTags are the frames outside the stage tables: the re-key
// handshake, the combiner leg and the transcript tail.
var sideLegTags = []int{
	engine.TagRoundOffer, engine.TagRoundAck, engine.TagRoundCommit, engine.TagRoundHello,
	engine.TagShardHello, engine.TagShardPartial, engine.TagCombineReport,
	engine.TagTranscriptCommit, engine.TagTranscriptProof, engine.TagCombineTranscript,
}

// checkReleased fails the test for every side-leg payload that does not
// read 0xDB throughout, i.e. was never released, and fails it too if a tag
// in want carried no frame at all. It then forgets what it kept.
func (l *frameLog) checkReleased(t *testing.T, want ...int) {
	t.Helper()
	l.mu.Lock()
	defer l.mu.Unlock()
	for _, tag := range want {
		if len(l.kept[tag]) == 0 {
			t.Errorf("no frame of tag %#x crossed a logged connection", tag)
		}
	}
	for _, tag := range sideLegTags {
		for i, p := range l.kept[tag] {
			if slices.ContainsFunc(p, func(b byte) bool { return b != 0xDB }) {
				t.Errorf("frame %d of tag %#x (%d bytes) was not released", i, tag, len(p))
			}
		}
	}
	l.kept = nil
}

type logClient struct {
	transport.ClientConn
	log *frameLog
}

func (c logClient) Send(f transport.Frame) error {
	c.log.keep(f.Stage, f.Payload)
	return c.ClientConn.Send(f)
}

func (c logClient) Recv(ctx context.Context) (transport.Frame, error) {
	f, err := c.ClientConn.Recv(ctx)
	if err != nil {
		return f, err
	}
	return c.log.received(f), nil
}

type logServer struct {
	transport.ServerConn
	log *frameLog
}

func (c logServer) SendTo(id uint64, f transport.Frame) error {
	c.log.keep(f.Stage, f.Payload)
	return c.ServerConn.SendTo(id, f)
}

func (c logServer) Recv(ctx context.Context) (transport.Frame, error) {
	f, err := c.ServerConn.Recv(ctx)
	if err != nil {
		return f, err
	}
	return c.log.received(f), nil
}

// TestSideLegsReleaseFrames: every frame the handshake (both sides), the
// transcript tail (server and client), the combiner and the shard uplink
// send or receive goes back to the transport by the time the round is
// over, and the rounds still end as they did: exact sums, a re-key then a
// full resume, and every client's audit of both tiers recorded.
func TestSideLegsReleaseFrames(t *testing.T) {
	t.Run("handshake+transcript", func(t *testing.T) {
		ids := seqIDs(5)
		log := &frameLog{}
		r := newWireRig(t, "memory", secagg.Config{ClientIDs: ids, Threshold: 3, Bits: 16, Dim: 32})
		r.srv = logServer{r.srv, log}
		r.wrap = func(_ uint64, c transport.ClientConn) transport.ClientConn { return logClient{c, log} }
		r.service()
		r.transcripts()
		for round := uint64(1); round <= 2; round++ {
			hs, res := r.round(round, nil)
			r.checkSum(res, ids)
			if resume := round > 1; hs.Resume != resume || len(hs.Divergent) != 0 {
				t.Fatalf("round %d: handshake %+v, want resume %v with nobody divergent", round, hs, resume)
			}
			for id, aud := range r.auditors {
				if h := aud.History(); len(h) != int(round) {
					t.Fatalf("round %d: client %d audited %d rounds", round, id, len(h))
				}
			}
			log.checkReleased(t, engine.TagRoundHello, engine.TagRoundOffer, engine.TagRoundAck,
				engine.TagRoundCommit, engine.TagTranscriptCommit, engine.TagTranscriptProof)
		}
	})

	t.Run("sharded", func(t *testing.T) {
		ids := seqIDs(8)
		log := &frameLog{}
		r := newShardedRig(t, ids, 2, secagg.Config{Threshold: 3, Bits: 16, Dim: 8})
		r.srv = logServer{r.srv, log}
		for _, sh := range r.shards {
			sh.up = logClient{sh.up, log}
			sh.srv = logServer{sh.srv, log}
			sh.wrap = func(_ uint64, c transport.ClientConn) transport.ClientConn { return logClient{c, log} }
		}
		r.transcripts()
		report, _ := r.clean(71, nil)
		r.checkSum(report, ids)
		for s, sh := range r.shards {
			for id, aud := range sh.auditors {
				if len(aud.History()) != 1 || len(sh.tiers[id].History()) != 1 {
					t.Fatalf("shard %d client %d did not audit both tiers", s, id)
				}
			}
		}
		log.checkReleased(t, engine.TagShardHello, engine.TagShardPartial, engine.TagCombineReport,
			engine.TagCombineTranscript, engine.TagTranscriptCommit, engine.TagTranscriptProof)
	})
}
