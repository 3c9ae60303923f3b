package engine

import (
	"context"
	"errors"
	"fmt"
	"runtime"
	"sync"
	"testing"
	"time"
)

// chanRecv adapts a channel to a RecvFunc.
func chanRecv(ch <-chan Msg) RecvFunc {
	return func(ctx context.Context) (Msg, error) {
		select {
		case m, ok := <-ch:
			if !ok {
				return Msg{}, errors.New("source closed")
			}
			return m, nil
		case <-ctx.Done():
			return Msg{}, ctx.Err()
		}
	}
}

// TestCollectAppliesInAdmissionOrder: however long each decode takes
// (earlier admissions sleep longer), applies must land in admission
// order — the contract the incremental server relies on.
func TestCollectAppliesInAdmissionOrder(t *testing.T) {
	const n = 8
	ch := make(chan Msg, n)
	for i := 1; i <= n; i++ {
		ch <- Msg{From: uint64(i), Stage: 1, Body: i}
	}
	expect := make([]uint64, n)
	for i := range expect {
		expect[i] = uint64(i + 1)
	}
	var mu sync.Mutex
	var applied []uint64
	eng := New(chanRecv(ch))
	admitted, err := eng.Collect(context.Background(), Stage{
		Tag: 1, Expect: expect,
		Decode: func(m Msg) (any, error) {
			// Earlier admissions decode slower.
			time.Sleep(time.Duration(n-m.Body.(int)) * 3 * time.Millisecond)
			return m.Body, nil
		},
		Apply: func(from uint64, body any) error {
			mu.Lock()
			applied = append(applied, from)
			mu.Unlock()
			return nil
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(admitted) != n || len(applied) != n {
		t.Fatalf("admitted %d applied %d, want %d", len(admitted), len(applied), n)
	}
	for i := range admitted {
		if applied[i] != admitted[i] {
			t.Fatalf("apply order %v != admission order %v", applied, admitted)
		}
	}
}

// TestCollectFiltersStaleDupUnexpected: wrong-tag, unknown-sender, and
// duplicate messages are discarded without reaching Apply.
func TestCollectFiltersStaleDupUnexpected(t *testing.T) {
	ch := make(chan Msg, 16)
	ch <- Msg{From: 1, Stage: 0, Body: "stale"}   // wrong tag
	ch <- Msg{From: 9, Stage: 2, Body: "unknown"} // unexpected sender
	ch <- Msg{From: 1, Stage: 2, Body: "first"}
	ch <- Msg{From: 1, Stage: 2, Body: "dup"} // duplicate
	ch <- Msg{From: 2, Stage: 99, Body: "future"}
	ch <- Msg{From: 2, Stage: 2, Body: "second"}
	var got []string
	eng := New(chanRecv(ch))
	admitted, err := eng.Collect(context.Background(), Stage{
		Tag: 2, Expect: []uint64{1, 2},
		Apply: func(from uint64, body any) error {
			got = append(got, body.(string))
			return nil
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(admitted) != 2 || got[0] != "first" || got[1] != "second" {
		t.Fatalf("admitted %v applied %v", admitted, got)
	}
}

// TestCollectDeadlinePartial: a never-answering sender must not hang the
// stage; Collect returns the partial admission set without error (the
// caller's Seal enforces thresholds).
func TestCollectDeadlinePartial(t *testing.T) {
	ch := make(chan Msg, 2)
	ch <- Msg{From: 1, Stage: 3, Body: nil}
	start := time.Now()
	eng := New(chanRecv(ch))
	admitted, err := eng.Collect(context.Background(), Stage{
		Tag: 3, Expect: []uint64{1, 2}, Deadline: 50 * time.Millisecond,
		Apply: func(uint64, any) error { return nil },
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(admitted) != 1 || admitted[0] != 1 {
		t.Fatalf("admitted %v, want [1]", admitted)
	}
	if el := time.Since(start); el > 2*time.Second {
		t.Fatalf("deadline took %v", el)
	}
}

// TestCollectAbortsOnApplyError: an Apply error aborts the stage promptly
// even though more expected senders never answer (no deadline wait).
func TestCollectAbortsOnApplyError(t *testing.T) {
	ch := make(chan Msg, 2)
	ch <- Msg{From: 1, Stage: 4, Body: []byte{1}}
	boom := errors.New("boom")
	start := time.Now()
	eng := New(chanRecv(ch))
	_, err := eng.Collect(context.Background(), Stage{
		Tag: 4, Expect: []uint64{1, 2}, Deadline: 30 * time.Second,
		Decode: func(m Msg) (any, error) { return m.Body, nil },
		Apply:  func(uint64, any) error { return boom },
	})
	if !errors.Is(err, boom) {
		t.Fatalf("err = %v, want boom", err)
	}
	if el := time.Since(start); el > 5*time.Second {
		t.Fatalf("abort took %v, should not wait out the deadline", el)
	}
}

// TestCollectAbortsOnDecodeError: same for a Decode error with later
// frames already queued.
func TestCollectAbortsOnDecodeError(t *testing.T) {
	const n = 6
	ch := make(chan Msg, n)
	expect := make([]uint64, n)
	for i := 1; i <= n; i++ {
		ch <- Msg{From: uint64(i), Stage: 5, Body: i}
		expect[i-1] = uint64(i)
	}
	bad := errors.New("bad frame")
	var applies int
	var mu sync.Mutex
	eng := New(chanRecv(ch))
	_, err := eng.Collect(context.Background(), Stage{
		Tag: 5, Expect: expect, Deadline: 30 * time.Second,
		Decode: func(m Msg) (any, error) {
			if m.Body.(int) == 2 {
				return nil, bad
			}
			return m.Body, nil
		},
		Apply: func(uint64, any) error {
			mu.Lock()
			applies++
			mu.Unlock()
			return nil
		},
	})
	if !errors.Is(err, bad) {
		t.Fatalf("err = %v, want bad frame", err)
	}
	if applies >= n {
		t.Fatalf("all %d applies ran despite decode error", applies)
	}
}

// TestCollectConcurrentSenders: many goroutines racing frames (with
// duplicates and stale tags) into the source; every expected sender lands
// exactly once and the stage terminates. Exercised with -race in CI.
func TestCollectConcurrentSenders(t *testing.T) {
	const n = 32
	ch := make(chan Msg, 4*n)
	expect := make([]uint64, n)
	var sendWG sync.WaitGroup
	for i := 1; i <= n; i++ {
		expect[i-1] = uint64(i)
		sendWG.Add(1)
		go func(id uint64) {
			defer sendWG.Done()
			ch <- Msg{From: id, Stage: 6, Body: fmt.Sprintf("stale-%d", id)} // wrong tag
			ch <- Msg{From: id, Stage: 7, Body: id}
			ch <- Msg{From: id, Stage: 7, Body: id} // duplicate
		}(uint64(i))
	}
	counts := make(map[uint64]int, n)
	var mu sync.Mutex
	eng := New(chanRecv(ch))
	admitted, err := eng.Collect(context.Background(), Stage{
		Tag: 7, Expect: expect, Deadline: 30 * time.Second,
		Decode: func(m Msg) (any, error) { return m.Body, nil },
		Apply: func(from uint64, body any) error {
			if body.(uint64) != from {
				return fmt.Errorf("body %v from %d", body, from)
			}
			mu.Lock()
			counts[from]++
			mu.Unlock()
			return nil
		},
	})
	sendWG.Wait()
	if err != nil {
		t.Fatal(err)
	}
	if len(admitted) != n {
		t.Fatalf("admitted %d senders, want %d", len(admitted), n)
	}
	for id, c := range counts {
		if c != 1 {
			t.Fatalf("sender %d applied %d times", id, c)
		}
	}
}

// TestCollectQuorum: a stage whose QuorumMet counts k applied messages
// completes as soon as k expected senders were admitted, without waiting
// for the rest — the any-K-of-N collection LightSecAgg's one-shot recovery
// stage uses. The remaining senders never answer, so an all-of-N stage
// would only end at the deadline; the quorum stage must end immediately.
func TestCollectQuorum(t *testing.T) {
	ch := make(chan Msg, 8)
	for i := 1; i <= 3; i++ { // only 3 of 5 expected senders answer
		ch <- Msg{From: uint64(i), Stage: 2, Body: i}
	}
	var applied []uint64
	start := time.Now()
	admitted, err := New(chanRecv(ch)).Collect(context.Background(), Stage{
		Tag: 2, Expect: []uint64{1, 2, 3, 4, 5},
		QuorumMet: func() bool { return len(applied) >= 3 },
		Deadline:  5 * time.Second,
		Apply: func(from uint64, body any) error {
			applied = append(applied, from)
			return nil
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(admitted) != 3 || len(applied) != 3 {
		t.Fatalf("admitted %v applied %v, want 3 each", admitted, applied)
	}
	if elapsed := time.Since(start); elapsed > 2*time.Second {
		t.Errorf("quorum stage took %v — must not wait for the deadline", elapsed)
	}
}

// TestCollectQuorumAboveExpectIsAllOfN: a quorum the expected set cannot
// meet degrades to all-of-N rather than waiting forever for senders that
// do not exist.
func TestCollectQuorumAboveExpectIsAllOfN(t *testing.T) {
	ch := make(chan Msg, 4)
	ch <- Msg{From: 1, Stage: 3, Body: 1}
	ch <- Msg{From: 2, Stage: 3, Body: 2}
	applied := 0
	admitted, err := New(chanRecv(ch)).Collect(context.Background(), Stage{
		Tag: 3, Expect: []uint64{1, 2},
		QuorumMet: func() bool { return applied >= 10 },
		Apply:     func(uint64, any) error { applied++; return nil },
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(admitted) != 2 {
		t.Fatalf("admitted %v, want both expected senders", admitted)
	}
}

// TestCollectParksHandshakeFrames pins the restart-tolerance contract: a
// handshake frame arriving during a round-stage Collect is parked, not
// discarded, and replayed to the Collect it belongs to — while round
// frames with wrong tags are still dropped.
func TestCollectParksHandshakeFrames(t *testing.T) {
	frames := []Msg{
		{From: 2, Stage: TagRoundHello, Body: "early hello"}, // mid-round re-dial
		{From: 2, Stage: TagRoundAck, Body: "stale ack"},     // must NOT be parked (stale by definition)
		{From: 9, Stage: 7, Body: "stale round frame"},       // must be discarded
		{From: 1, Stage: 1, Body: "stage payload"},
	}
	i := 0
	recv := func(ctx context.Context) (Msg, error) {
		if i < len(frames) {
			m := frames[i]
			i++
			return m, nil
		}
		<-ctx.Done()
		return Msg{}, ctx.Err()
	}
	eng := New(recv)

	// The round stage admits client 1 and parks client 2's hello.
	var got []any
	admitted, err := eng.Collect(context.Background(), Stage{
		Name: "round-stage", Tag: 1, Expect: []uint64{1},
		Apply: func(_ uint64, body any) error { got = append(got, body); return nil },
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(admitted) != 1 || admitted[0] != 1 {
		t.Fatalf("round stage admitted %v, want [1]", admitted)
	}

	// The hello stage completes from the parked frame alone: the source
	// is exhausted, so only the parked replay can satisfy it before the
	// deadline.
	admitted, err = eng.Collect(context.Background(), Stage{
		Name: "hello", Tag: TagRoundHello, Expect: []uint64{2},
		Deadline: 100 * time.Millisecond,
		Apply:    func(_ uint64, body any) error { got = append(got, body); return nil },
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(admitted) != 1 || admitted[0] != 2 {
		t.Fatalf("hello stage admitted %v, want [2] (parked frame lost)", admitted)
	}
	if len(got) != 2 || got[0] != "stage payload" || got[1] != "early hello" {
		t.Fatalf("applied bodies = %v", got)
	}
	// The parked entry was consumed: a re-run must wait out its deadline
	// empty-handed.
	admitted, err = eng.Collect(context.Background(), Stage{
		Name: "hello-again", Tag: TagRoundHello, Expect: []uint64{2},
		Deadline: 50 * time.Millisecond,
		Apply:    func(uint64, any) error { return nil },
	})
	if err != nil || len(admitted) != 0 {
		t.Fatalf("replayed parked frame twice: admitted=%v err=%v", admitted, err)
	}
	// The stale ack was discarded, not parked: an ack Collect must not
	// see it (a parked stale ack would shadow the sender's genuine ack at
	// the next handshake and force a spurious re-key).
	admitted, err = eng.Collect(context.Background(), Stage{
		Name: "ack", Tag: TagRoundAck, Expect: []uint64{2},
		Deadline: 50 * time.Millisecond,
		Apply:    func(uint64, any) error { return nil },
	})
	if err != nil || len(admitted) != 0 {
		t.Fatalf("stale ack was parked: admitted=%v err=%v", admitted, err)
	}
}

// TestCollectStagePark: a stage's Park predicate claims mismatched frames
// for the later Collect of their tag — and only the ones it says yes to.
func TestCollectStagePark(t *testing.T) {
	frames := make(chan Msg, 3)
	frames <- Msg{From: 1, Stage: 9, Body: "fresh"}
	frames <- Msg{From: 2, Stage: 9, Body: "stale"}
	frames <- Msg{From: 1, Stage: 5, Body: "presence"}
	eng := New(chanRecv(frames))
	nop := func(uint64, any) error { return nil }

	admitted, err := eng.Collect(context.Background(), Stage{
		Name: "presence", Tag: 5, Expect: []uint64{1}, Apply: nop,
		Park: func(m Msg) bool { return m.Stage == 9 && m.Body == "fresh" },
	})
	if err != nil || len(admitted) != 1 {
		t.Fatalf("presence stage: admitted=%v err=%v", admitted, err)
	}
	// The source is drained: only the parked replay can feed this stage.
	var got []any
	admitted, err = eng.Collect(context.Background(), Stage{
		Name: "payload", Tag: 9, Expect: []uint64{1, 2}, Deadline: 50 * time.Millisecond,
		Apply: func(_ uint64, body any) error { got = append(got, body); return nil },
	})
	if err != nil || len(admitted) != 1 || admitted[0] != 1 || got[0] != "fresh" {
		t.Fatalf("want exactly the claimed frame replayed: admitted=%v got=%v err=%v", admitted, got, err)
	}
}

// TestCollectIsSequential: a stage is one loop on the caller's goroutine.
// Decode and Apply share a counter nothing guards (under -race the
// detector is the assertion), no goroutine is started on a frame's behalf,
// and a 256-frame stage allocates its bookkeeping, not per frame.
func TestCollectIsSequential(t *testing.T) {
	const n = 256
	frames := make([]Msg, n)
	expect := make([]uint64, n)
	for i := range frames {
		frames[i] = Msg{From: uint64(i + 1), Stage: 1, Body: i}
		expect[i] = uint64(i + 1)
	}
	var next, steps, spawned int
	recv := func(context.Context) (Msg, error) {
		next++
		return frames[next-1], nil
	}
	before := runtime.NumGoroutine()
	stage := Stage{
		Tag: 1, Expect: expect,
		Decode: func(m Msg) (any, error) {
			steps++
			if runtime.NumGoroutine() > before {
				spawned++
			}
			return m.Body, nil
		},
		Apply: func(uint64, any) error { steps++; return nil },
	}
	allocs := testing.AllocsPerRun(5, func() {
		next, steps = 0, 0
		admitted, err := New(recv).Collect(context.Background(), stage)
		if err != nil || len(admitted) != n || steps != 2*n {
			t.Fatalf("admitted %d, %d decode+apply steps, err %v", len(admitted), steps, err)
		}
	})
	if spawned > 0 {
		t.Errorf("%d decodes ran with more goroutines alive than before Collect", spawned)
	}
	if allocs > 16 {
		t.Errorf("a %d-frame stage allocated %.0f times, want ≤ 16", n, allocs)
	}
}

// TestCollectStopsAtFirstError: once an Apply fails, nothing queued behind
// it — in the source or among the parked frames — is decoded or applied,
// the failing frame still goes back to the transport, and so does every
// parked frame of the stage's tag.
func TestCollectStopsAtFirstError(t *testing.T) {
	boom := errors.New("boom")
	var decoded, applied []string
	stage := Stage{
		Tag: 2, Expect: []uint64{1, 2, 3}, Deadline: 30 * time.Second,
		Decode: func(m Msg) (any, error) {
			decoded = append(decoded, label(m))
			return m.Body, nil
		},
		Apply: func(_ uint64, body any) error {
			applied = append(applied, label(Msg{Body: body}))
			if len(applied) == 2 {
				return boom
			}
			return nil
		},
	}

	msgs := map[string]Msg{
		"one":   leasedFrame(t, 1, 2, "one"),
		"two":   leasedFrame(t, 2, 2, "two"),
		"three": leasedFrame(t, 3, 2, "three"),
	}
	ch := make(chan Msg, len(msgs))
	ch <- msgs["one"]
	ch <- msgs["two"]
	ch <- msgs["three"]
	admitted, err := New(chanRecv(ch)).Collect(context.Background(), stage)
	if !errors.Is(err, boom) {
		t.Fatalf("err = %v, want boom", err)
	}
	if fmt.Sprint(admitted) != "[1 2]" || fmt.Sprint(decoded) != "[one two]" || fmt.Sprint(applied) != "[one two]" {
		t.Fatalf("admitted %v decoded %v applied %v, want the stage to stop at two", admitted, decoded, applied)
	}
	if len(ch) != 1 {
		t.Fatalf("%d frames left in the source, want three still queued", len(ch))
	}
	if r := releasedFrames(msgs); !r["one"] || !r["two"] || r["three"] {
		t.Fatalf("released %v, want one and two (the failing frame) and not the unread three", r)
	}

	// The same stage fed from parked frames: the replay stops at the
	// failure too, and consumes — releases — what it did not run.
	msgs = map[string]Msg{
		"one":   leasedFrame(t, 1, 2, "one"),
		"two":   leasedFrame(t, 2, 2, "two"),
		"three": leasedFrame(t, 3, 2, "three"),
		"open":  leasedFrame(t, 1, 1, "open"),
	}
	ch = make(chan Msg, len(msgs))
	ch <- msgs["one"]
	ch <- msgs["two"]
	ch <- msgs["three"]
	ch <- msgs["open"]
	eng := New(chanRecv(ch))
	if _, err := eng.Collect(context.Background(), Stage{
		Tag: 1, Expect: []uint64{1},
		Apply: func(uint64, any) error { return nil },
		Park:  func(m Msg) bool { return m.Stage == 2 },
	}); err != nil {
		t.Fatal(err)
	}
	decoded, applied = nil, nil
	admitted, err = eng.Collect(context.Background(), stage)
	if !errors.Is(err, boom) {
		t.Fatalf("replay: err = %v, want boom", err)
	}
	if len(admitted) != 2 || len(decoded) != 2 || len(applied) != 2 {
		t.Fatalf("replay: admitted %v decoded %v applied %v, want two of each", admitted, decoded, applied)
	}
	for name, released := range releasedFrames(msgs) {
		if !released {
			t.Errorf("replay: the %s frame was not released", name)
		}
	}
}
