package engine

import (
	"context"
	"encoding/binary"
	"errors"
	"fmt"
	"runtime"
	"slices"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/transport"
)

// A toy substrate for the walkers: clients advertise a key (step 0),
// upload a number once they hold the roster (step 1), optionally confirm
// (step 2, solicited only when the server is told to), and get the sum.
// A resumed round is rows, as in secagg: the server seals its cache with
// the divergent members' fresh keys and, on a full resume, silently; a
// client that keeps its key sends nothing at step 0, and one that holds
// the roster awaits nothing at step 1. Every message body is a uint64, so
// the toy codec is eight bytes.
const (
	toyAdvertise = iota
	toyRoster
	toyValue
	toyConfirmReq
	toyConfirm
	toyResult
)

// toyServer records what the walker fed it.
type toyServer struct {
	ids        []uint64
	cache      []Msg // a previous round's sealed advertisements
	confirm    bool  // solicit the optional step
	advertised map[uint64]uint64
	values     map[uint64]uint64
	confirmed  []uint64
	sum        uint64
}

func (s *toyServer) program(resume bool, divergent []uint64) ServerProgram {
	s.advertised, s.values = map[uint64]uint64{}, map[uint64]uint64{}
	sorted := func(m map[uint64]uint64) []uint64 {
		out := make([]uint64, 0, len(m))
		for id := range m {
			out = append(out, id)
		}
		sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
		return out
	}
	roster, rosterTag := s.ids, toyRoster
	if resume {
		roster = divergent
		if len(divergent) == 0 {
			rosterTag = NoTag
		}
	}
	return ServerProgram{Roster: roster, Steps: []ServerStep{{
		Name: "advertise", Tag: toyAdvertise,
		Apply: func(from uint64, body any) error { s.advertised[from] = body.(uint64); return nil },
		Seal: func() (Downlink, error) {
			if resume {
				if s.cache == nil {
					return Downlink{}, errors.New("toy: nothing cached")
				}
				for _, m := range s.cache {
					s.advertised[m.From] = m.Body.(uint64)
				}
			}
			u := sorted(s.advertised)
			return Downlink{To: u, Tag: rosterTag, Body: uint64(len(u))}, nil
		},
	}, {
		Name: "value", Tag: toyValue,
		Apply: func(from uint64, body any) error { s.values[from] = body.(uint64); return nil },
		Seal: func() (Downlink, error) {
			for _, v := range s.values {
				s.sum += v
			}
			if !s.confirm {
				return Downlink{}, nil
			}
			return Downlink{To: sorted(s.values), Tag: toyConfirmReq, Body: s.sum}, nil
		},
	}, {
		Name: "confirm", Tag: toyConfirm,
		Apply: func(from uint64, _ any) error { s.confirmed = append(s.confirmed, from); return nil },
		Seal: func() (Downlink, error) {
			return Downlink{To: sorted(s.values), Tag: toyResult, Body: s.sum}, nil
		},
	}}}
}

// toyClient records which of its steps ran.
type toyClient struct {
	id     uint64
	cached bool // holds a roster from a previous round
	failAt string
	ran    []string
	result uint64
}

func (c *toyClient) program(resume bool, divergent []uint64) ClientProgram {
	step := func(name string, out func(body any) uint64) func(any) (any, error) {
		return func(body any) (any, error) {
			c.ran = append(c.ran, name)
			if c.failAt == name {
				return nil, errors.New("toy failure")
			}
			return out(body), nil
		}
	}
	keeps := resume && !slices.Contains(divergent, c.id)
	holds := resume && len(divergent) == 0
	advertise := ClientStep{
		Name: "advertise", Await: NoTag, Send: toyAdvertise,
		Do: step("advertise", func(any) uint64 { return c.id * 100 }),
	}
	if keeps {
		advertise = ClientStep{Name: "advertise", Await: NoTag, Send: NoTag,
			Do: func(any) (any, error) { return nil, nil }}
	}
	value := ClientStep{Name: "value", Await: toyRoster, Send: toyValue,
		Do: step("value", func(any) uint64 { return c.id })}
	if keeps {
		do := value.Do
		value.Do = func(body any) (any, error) {
			c.ran = append(c.ran, "skip")
			if holds {
				if !c.cached {
					return nil, errors.New("toy: nothing cached")
				}
				c.ran = append(c.ran, "cached")
			}
			return do(body)
		}
	}
	if holds {
		value.Await = NoTag
	}
	return ClientProgram{ID: c.id, Steps: []ClientStep{advertise, value, {
		Name: "confirm", Await: toyConfirmReq, Send: toyConfirm, Optional: true,
		Do: step("confirm", func(body any) uint64 { return body.(uint64) }),
	}, {
		Name: "result", Await: toyResult, Send: NoTag,
		Do: step("result", func(body any) uint64 { c.result = body.(uint64); return 0 }),
	}}}
}

var toyMsg = MsgOf(
	func(v uint64) ([]byte, error) { return binary.LittleEndian.AppendUint64(nil, v), nil },
	func(p []byte) (uint64, error) {
		if len(p) != 8 {
			return 0, fmt.Errorf("toy: %d-byte payload", len(p))
		}
		return binary.LittleEndian.Uint64(p), nil
	})

var toyCodec = Codec{toyAdvertise: toyMsg, toyRoster: toyMsg, toyValue: toyMsg,
	toyConfirmReq: toyMsg, toyConfirm: toyMsg, toyResult: toyMsg}

func toyRound(n int) (*toyServer, []*toyClient) {
	s := &toyServer{}
	var clients []*toyClient
	for id := uint64(1); id <= uint64(n); id++ {
		s.ids = append(s.ids, id)
		clients = append(clients, &toyClient{id: id})
	}
	return s, clients
}

func runToyLocal(s *toyServer, clients []*toyClient, resume bool, divergent []uint64, drops map[uint64]int) error {
	var cps []ClientProgram
	for _, c := range clients {
		cps = append(cps, c.program(resume, divergent))
	}
	return RunLocal(nil, s.program(resume, divergent), cps, func(id uint64) int {
		if d, ok := drops[id]; ok {
			return d
		}
		return NoDrop
	})
}

func ran(c *toyClient) string { return strings.Join(c.ran, ",") }

// TestRunLocalFreshRound: the fresh path runs every step, skips the
// optional one when the server does not solicit it, and a scheduled
// dropper contributes to the steps before its drop and none after.
func TestRunLocalFreshRound(t *testing.T) {
	s, clients := toyRound(4)
	if err := runToyLocal(s, clients, false, nil, map[uint64]int{3: 1}); err != nil {
		t.Fatal(err)
	}
	if len(s.advertised) != 4 || len(s.values) != 3 || s.sum != 1+2+4 {
		t.Fatalf("advertised %v, values %v, sum %d", s.advertised, s.values, s.sum)
	}
	if got := ran(clients[0]); got != "advertise,value,result" || clients[0].result != 7 {
		t.Errorf("client 1 ran %q, result %d", got, clients[0].result)
	}
	if got := ran(clients[2]); got != "advertise" {
		t.Errorf("dropper ran %q, want only the step before its drop", got)
	}
}

// TestRunLocalOptionalStep: when the server solicits the optional step,
// every client runs it before the result.
func TestRunLocalOptionalStep(t *testing.T) {
	s, clients := toyRound(3)
	s.confirm = true
	if err := runToyLocal(s, clients, false, nil, nil); err != nil {
		t.Fatal(err)
	}
	if len(s.confirmed) != 3 {
		t.Fatalf("confirmed = %v", s.confirmed)
	}
	if got := ran(clients[1]); got != "advertise,value,confirm,result" {
		t.Errorf("client 2 ran %q", got)
	}
}

// TestWalkersResume: on a full resume nothing is advertised, collected or
// re-broadcast — the server seals its cache, every client takes its own —
// and on a partial resume exactly the divergent member re-advertises
// while everyone waits for the merged roster. The toy's resume is rows, so
// this pins what secagg's resume rows rely on: a silent seal delivers
// nothing yet names the next step's senders, a NoTag await waits for
// nothing, and a NoTag send sends nothing.
func TestWalkersResume(t *testing.T) {
	cache := func(ids ...uint64) (out []Msg) {
		for _, id := range ids {
			out = append(out, Msg{From: id, Body: id * 100})
		}
		return out
	}
	t.Run("full", func(t *testing.T) {
		s, clients := toyRound(3)
		s.cache = cache(1, 2, 3)
		for _, c := range clients {
			c.cached = true
		}
		if err := runToyLocal(s, clients, true, nil, nil); err != nil {
			t.Fatal(err)
		}
		if s.sum != 6 || len(s.advertised) != 3 {
			t.Fatalf("sum %d, advertised %v", s.sum, s.advertised)
		}
		for _, c := range clients {
			if got := ran(c); got != "skip,cached,value,result" {
				t.Errorf("client %d ran %q", c.id, got)
			}
		}
	})
	t.Run("partial", func(t *testing.T) {
		s, clients := toyRound(3)
		s.cache = cache(1, 3)
		if err := runToyLocal(s, clients, true, []uint64{2}, nil); err != nil {
			t.Fatal(err)
		}
		if s.sum != 6 || s.advertised[2] != 200 {
			t.Fatalf("sum %d, advertised %v", s.sum, s.advertised)
		}
		if got := ran(clients[0]); got != "skip,value,result" {
			t.Errorf("client 1 ran %q", got)
		}
		if got := ran(clients[1]); got != "advertise,value,result" {
			t.Errorf("divergent client 2 ran %q", got)
		}
	})
	t.Run("nothing cached", func(t *testing.T) {
		s, clients := toyRound(3)
		if err := runToyLocal(s, clients, true, nil, nil); err == nil {
			t.Fatal("resume on an empty cache succeeded")
		}
	})
}

// TestRunLocalClientFailureAborts: a client whose step fails aborts the
// round with that error instead of hanging the deadline-less collection.
func TestRunLocalClientFailureAborts(t *testing.T) {
	s, clients := toyRound(3)
	clients[1].failAt = "value"
	err := runToyLocal(s, clients, false, nil, nil)
	if err == nil || !strings.Contains(err.Error(), "client 2 value: toy failure") {
		t.Fatalf("err = %v, want client 2's failure", err)
	}
}

// dupConn sends every frame twice.
type dupConn struct{ transport.ClientConn }

func (c dupConn) Send(f transport.Frame) error {
	if err := c.ClientConn.Send(f); err != nil {
		return err
	}
	return c.ClientConn.Send(f)
}

// TestWireRound: the same toy tables over a memory transport through the
// codec — stage deadline, wire drop, duplicate frames discarded, optional
// step solicited.
func TestWireRound(t *testing.T) {
	s, clients := toyRound(4)
	s.confirm = true
	net := transport.NewMemoryNetwork(64)
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	var wg sync.WaitGroup
	for _, c := range clients {
		conn, err := net.Connect(c.id)
		if err != nil {
			t.Fatal(err)
		}
		drop := NoDrop
		if c.id == 4 {
			drop = 2 // uploads its value, vanishes before confirming
		}
		wg.Add(1)
		go func(c *toyClient) {
			defer wg.Done()
			if err := JoinWire(ctx, dupConn{conn}, toyCodec, c.program(false, nil), drop); err != nil {
				t.Errorf("client %d: %v", c.id, err)
			}
		}(c)
	}
	if err := ServeWire(ctx, net.Server(), nil, toyCodec, 300*time.Millisecond, s.program(false, nil)); err != nil {
		t.Fatal(err)
	}
	wg.Wait()
	if s.sum != 10 || len(s.confirmed) != 3 {
		t.Fatalf("sum %d, confirmed %v", s.sum, s.confirmed)
	}
	if got := ran(clients[0]); got != "advertise,value,confirm,result" || clients[0].result != 10 {
		t.Errorf("client 1 ran %q, result %d", got, clients[0].result)
	}
	if got := ran(clients[3]); got != "advertise,value" {
		t.Errorf("dropper ran %q", got)
	}
}

// instrument wraps every step of every client program: before runs
// before the step's Do and after once it returned.
func instrument(cps []ClientProgram, before func(id uint64, step string), after func(id uint64, step string)) {
	for _, p := range cps {
		for i := range p.Steps {
			do, id, name := p.Steps[i].Do, p.ID, p.Steps[i].Name
			p.Steps[i].Do = func(body any) (any, error) {
				before(id, name)
				defer after(id, name)
				return do(body)
			}
		}
	}
}

// TestRunLocalBoundsWorkers: a 64-client round never has more than
// GOMAXPROCS client steps in flight — the in-process link runs each
// downlink's recipients on ForEach's workers, not one goroutine each.
func TestRunLocalBoundsWorkers(t *testing.T) {
	const procs = 2
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(procs))
	s, clients := toyRound(64)
	var cps []ClientProgram
	for _, c := range clients {
		cps = append(cps, c.program(false, nil))
	}
	var inFlight, widest atomic.Int32
	instrument(cps, func(uint64, string) {
		now := inFlight.Add(1)
		for w := widest.Load(); now > w && !widest.CompareAndSwap(w, now); w = widest.Load() {
		}
		time.Sleep(100 * time.Microsecond)
	}, func(uint64, string) { inFlight.Add(-1) })
	if err := RunLocal(nil, s.program(false, nil), cps, func(uint64) int { return NoDrop }); err != nil {
		t.Fatal(err)
	}
	if s.sum != 64*65/2 {
		t.Fatalf("sum %d", s.sum)
	}
	if w := widest.Load(); w > procs {
		t.Errorf("%d client steps in flight at once, GOMAXPROCS is %d", w, procs)
	}
}

// TestRunLocalAppliesInIDOrder: the server applies a stage's uplinks in
// the order of the downlink that produced them, however the clients'
// steps finish — here the highest id finishes first.
func TestRunLocalAppliesInIDOrder(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(4))
	const n = 8
	s, clients := toyRound(n)
	var cps []ClientProgram
	for _, c := range clients {
		cps = append(cps, c.program(false, nil))
	}
	instrument(cps, func(id uint64, step string) {
		if step == "value" {
			time.Sleep(time.Duration(n-id) * time.Millisecond)
		}
	}, func(uint64, string) {})
	sp := s.program(false, nil)
	var order []uint64
	apply := sp.Steps[1].Apply
	sp.Steps[1].Apply = func(from uint64, body any) error {
		order = append(order, from)
		return apply(from, body)
	}
	if err := RunLocal(nil, sp, cps, func(uint64) int { return NoDrop }); err != nil {
		t.Fatal(err)
	}
	if !slices.IsSorted(order) || len(order) != n {
		t.Errorf("value stage applied in order %v, want ids ascending", order)
	}
}
