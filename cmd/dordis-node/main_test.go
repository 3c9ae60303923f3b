package main

import (
	"bytes"
	"fmt"
	"regexp"
	"strings"
	"sync"
	"testing"
	"time"
)

// The multi-process recipe of the deployment notes as assertions: every
// party is one run() call — the same function main wraps — talking over
// loopback TCP, so the flag plumbing, the roles and the round glue are
// all on the tested path.

// output is a party's stdout, safe to read while the party still writes.
type output struct {
	mu  sync.Mutex
	buf bytes.Buffer
}

func (o *output) Write(p []byte) (int, error) {
	o.mu.Lock()
	defer o.mu.Unlock()
	return o.buf.Write(p)
}

func (o *output) String() string {
	o.mu.Lock()
	defer o.mu.Unlock()
	return o.buf.String()
}

// await polls until the party printed something matching re and returns
// the first submatch.
func (o *output) await(t *testing.T, re *regexp.Regexp) string {
	t.Helper()
	for deadline := time.Now().Add(10 * time.Second); time.Now().Before(deadline); time.Sleep(5 * time.Millisecond) {
		if m := re.FindStringSubmatch(o.String()); m != nil {
			return m[1]
		}
	}
	t.Fatalf("no %q in output:\n%s", re, o.String())
	return ""
}

var listeningOn = regexp.MustCompile(`listening on (\S+),`)

// party starts one node and returns its stdout and a wait function.
func party(t *testing.T, args ...string) (*output, func()) {
	t.Helper()
	var stdout, stderr output
	done := make(chan error, 1)
	go func() { done <- run(args, &stdout, &stderr) }()
	return &stdout, func() {
		t.Helper()
		select {
		case err := <-done:
			if err != nil {
				t.Errorf("dordis-node %s: %v\nstderr:\n%s", strings.Join(args, " "), err, stderr.String())
			}
		case <-time.After(60 * time.Second):
			t.Fatalf("dordis-node %s: still running\nstdout:\n%s\nstderr:\n%s",
				strings.Join(args, " "), stdout.String(), stderr.String())
		}
	}
}

// shared are the round flags every party of a flat round gets: plain
// SecAgg (no XNoise, so the aggregate is exact). The round tests run it as
// a subtest named after the protocol the node speaks.
var shared = []string{"-clients", "1,2,3,4", "-threshold", "3", "-tolerance", "0", "-dim", "16"}

// Client i contributes the constant 3i, so every coordinate sums to 30.
const wantMean = "mean: 30.00 "

func clientArgs(addr string, id int, extra ...string) []string {
	args := append([]string{"-role", "client", "-connect", addr,
		"-id", fmt.Sprint(id), "-value", fmt.Sprint(3 * id)}, shared...)
	return append(args, extra...)
}

func TestNodeSingleRound(t *testing.T) {
	t.Run("secagg", func(t *testing.T) {
		server, waitServer := party(t, append([]string{"-role", "server", "-listen", "127.0.0.1:0"}, shared...)...)
		addr := server.await(t, listeningOn)
		var waits []func()
		for id := 1; id <= 4; id++ {
			out, wait := party(t, clientArgs(addr, id)...)
			waits = append(waits, func() {
				wait()
				if !strings.Contains(out.String(), "round complete") {
					t.Errorf("client %d did not report completion:\n%s", id, out.String())
				}
			})
		}
		waitServer()
		for _, wait := range waits {
			wait()
		}
		if ok, _ := regexp.MatchString(wantMean, server.String()); !ok {
			t.Errorf("server aggregate is not the sum of -value:\n%s", server.String())
		}
	})
}

// TestNodeSessionRounds: three rounds on one key generation. Clients 1–3
// stay up; client 4 is a fresh process every round (-rounds 1, three
// times) that reloads its session from its -session-dir, and must not
// cost the service a re-key.
func TestNodeSessionRounds(t *testing.T) {
	t.Run("secagg", func(t *testing.T) {
		server, waitServer := party(t, append([]string{"-role", "server", "-listen", "127.0.0.1:0",
			"-rounds", "3", "-key-rounds", "3"}, shared...)...)
		addr := server.await(t, listeningOn)
		var waits []func()
		for id := 1; id <= 3; id++ {
			_, wait := party(t, clientArgs(addr, id, "-rounds", "3")...)
			waits = append(waits, wait)
		}
		dir := t.TempDir()
		for r := 1; r <= 3; r++ {
			out, wait := party(t, clientArgs(addr, 4, "-rounds", "1", "-session-dir", dir)...)
			wait()
			if restored := strings.Contains(out.String(), "restored session"); restored != (r > 1) {
				t.Errorf("round %d: restored from store = %v:\n%s", r, restored, out.String())
			}
			if !strings.Contains(out.String(), "complete") {
				t.Errorf("round %d: client 4 did not complete:\n%s", r, out.String())
			}
		}
		waitServer()
		for _, wait := range waits {
			wait()
		}
		for r, how := range []string{`re-keyed`, `resumed, ratchet 1`, `resumed, ratchet 2`} {
			re := fmt.Sprintf(`round %d \(%s\): [^\n]*\n?[^\n]*%s`, r+1, how, wantMean)
			if ok, _ := regexp.MatchString(re, server.String()); !ok {
				t.Errorf("round %d: want %q with the sum of -value in:\n%s", r+1, how, server.String())
			}
		}
	})
}

// shardTest runs -role shardtest — the combiner, shard and client roles
// started by one run(): two shard aggregators and eight clients (constant 1
// each, no XNoise) over loopback TCP — and returns what it printed.
func shardTest(t *testing.T, extra ...string) string {
	t.Helper()
	out, wait := party(t, append([]string{"-role", "shardtest", "-clients", "1,2,3,4,5,6,7,8",
		"-shards", "2", "-threshold", "3", "-tolerance", "0", "-dim", "16"}, extra...)...)
	wait()
	return out.String()
}

// TestNodeShardedRound: both shards contribute and the folded
// per-coordinate mean is the survivor count.
func TestNodeShardedRound(t *testing.T) {
	out := shardTest(t)
	for _, want := range []string{
		"complete: shards=[0 1] survivors=8 dropped=0, folded per-coordinate mean 8.00\n",
		"mean ~8 over 2 contributing shard(s)\n",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("no %q in:\n%s", want, out)
		}
	}
}

// TestNodeShardedKillShard: shard 1 crashes on its first masked input;
// with a quorum of one the round completes degraded over shard 0 and folds
// exactly its four clients.
func TestNodeShardedKillShard(t *testing.T) {
	out := shardTest(t, "-kill-shard", "1", "-shard-quorum", "1")
	for _, want := range []string{
		"DEGRADED (missing shards [1]): shards=[0] survivors=4 dropped=0, folded per-coordinate mean 4.00\n",
		"mean ~4 over 1 contributing shard(s)\n",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("no %q in:\n%s", want, out)
		}
	}
}

// TestNodeShardedTranscript: every client verifies its shard's signed
// round root and that root's inclusion in the combiner's tree.
func TestNodeShardedTranscript(t *testing.T) {
	out := shardTest(t, "-transcript")
	if !strings.Contains(out, "complete: shards=[0 1] survivors=8 ") ||
		!strings.Contains(out, "transcripts: 8/8 clients verified the shard tier, 8 the combiner tier\n") {
		t.Errorf("not every client verified both tiers:\n%s", out)
	}
}

// TestNodeSelfTest: -role selftest starts the server and client roles in
// one run(); client i of four contributes i+1, so every coordinate sums to
// 10.
func TestNodeSelfTest(t *testing.T) {
	t.Run("secagg", func(t *testing.T) {
		out, wait := party(t, append([]string{"-role", "selftest"}, shared...)...)
		wait()
		if ok, _ := regexp.MatchString(`mean: 10.00 `, out.String()); !ok ||
			!strings.Contains(out.String(), "expected per-coordinate mean ~10 over 1 contributing server(s)\n") {
			t.Errorf("aggregate is not 1+2+3+4:\n%s", out.String())
		}
	})
}

// TestNodeShardedRoles is the recipe of sharded.go's header with one run()
// per party — a combiner, two shard aggregators, eight clients — for two
// rounds on one key generation: a shard is the server loop, so it runs the
// per-round handshake with its clients and resumes their sessions.
func TestNodeShardedRoles(t *testing.T) {
	shared := []string{"-clients", "1,2,3,4,5,6,7,8", "-shards", "2", "-threshold", "3",
		"-tolerance", "0", "-dim", "16", "-rounds", "2"}
	combiner, waitCombiner := party(t, append([]string{"-role", "combiner", "-listen", "127.0.0.1:0"}, shared...)...)
	combinerAddr := combiner.await(t, listeningOn)
	waits := []func(){waitCombiner}
	var shards []*output
	for s := 0; s < 2; s++ {
		shard, wait := party(t, append([]string{"-role", "shard", "-shard-id", fmt.Sprint(s), "-listen", "127.0.0.1:0",
			"-combiner-addr", combinerAddr, "-key-rounds", "2"}, shared...)...)
		addr := shard.await(t, listeningOn)
		shards, waits = append(shards, shard), append(waits, wait)
		for id := 4*s + 1; id <= 4*s+4; id++ {
			_, wait := party(t, append([]string{"-role", "client", "-connect", addr, "-id", fmt.Sprint(id)}, shared...)...)
			waits = append(waits, wait)
		}
	}
	for _, wait := range waits {
		wait()
	}
	for r := 1; r <= 2; r++ {
		want := fmt.Sprintf("round %d: complete: shards=[0 1] survivors=8 dropped=0, folded per-coordinate mean 8.00\n", r)
		if !strings.Contains(combiner.String(), want) {
			t.Errorf("no %q in:\n%s", want, combiner.String())
		}
	}
	for s, shard := range shards {
		for _, want := range []string{
			fmt.Sprintf("shard %d round 1 (re-keyed): 4 survivors, partial folded; combiner complete: ", s),
			fmt.Sprintf("shard %d round 2 (resumed, ratchet 1): 4 survivors, partial folded; combiner complete: ", s),
		} {
			if !strings.Contains(shard.String(), want) {
				t.Errorf("no %q in:\n%s", want, shard.String())
			}
		}
	}
}

// TestNodeRejectedFlags: every flag combination a role cannot run is
// refused by the one validation pass, before anything listens or dials.
func TestNodeRejectedFlags(t *testing.T) {
	for _, tc := range []struct {
		name, want string
		args       []string
	}{
		{"client without id", "client needs -id", []string{"-role", "client"}},
		{"sharded client without id", "client needs -id", []string{"-role", "client", "-shards", "2"}},
		{"shard id out of range", "shard id 2 out of range [0, 2)", []string{"-role", "shard", "-shards", "2", "-shard-id", "2", "-clients", "1,2,3,4"}},
		{"per-shard threshold", "apply per shard", []string{"-role", "shard", "-shards", "2", "-clients", "1,2,3,4", "-threshold", "3"}},
		{"unknown role", `unknown role "leader"`, []string{"-role", "leader"}},
		// The node speaks SecAgg only; there is no substrate to choose.
		{"unknown protocol", "flag provided but not defined: -protocol", []string{"-protocol", "lightsecagg"}},
		{"bad client id", `bad client id "x"`, []string{"-role", "server", "-clients", "1,x"}},
		{"bad pin", "bad -server-pub", []string{"-role", "client", "-id", "1", "-server-pub", "zz"}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			var stdout, stderr output
			err := run(append(tc.args, "-listen", "127.0.0.1:0"), &stdout, &stderr)
			if err == nil || !strings.Contains(err.Error(), tc.want) {
				t.Errorf("got %v, want an error mentioning %q", err, tc.want)
			}
			if stdout.String() != "" {
				t.Errorf("the rejected role got as far as printing:\n%s", stdout.String())
			}
		})
	}
}
