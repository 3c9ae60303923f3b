// Command dordis-node runs one party of a Dordis aggregation service over
// TCP — the deployment flavor of the protocol stack. The flags parse into
// one config, validated once against -role, and every role runs from it:
//
//   - the server loop (-role server; -role shard is the same loop plus an
//     upward connection to -combiner-addr, see sharded.go),
//   - the client loop (-role client),
//   - the root combiner of the sharded topology (-role combiner),
//   - the self-tests (-role selftest | shardtest), which start those same
//     role functions on loopback listeners in one process.
//
// Start a server, then clients (one process each, e.g. on different
// machines) — or the whole round in one process for a smoke test:
//
//	dordis-node -role server -listen :7700 -clients 1,2,3,4,5 -threshold 3
//	dordis-node -role client -connect host:7700 -id 1 -clients 1,2,3,4,5 -threshold 3 -value 7
//	dordis-node -role selftest
//
// Every client contributes a constant vector of its -value; the server
// prints the unmasked aggregate. With -tolerance > 0 the round runs
// XNoise with the given dropout tolerance and target noise level. The
// node speaks SecAgg only (round.go); the LightSecAgg baseline the paper
// compares against runs in process (examples/baseline_comparison).
//
// # Sessions, resume, and the re-key handshake
//
// With -rounds > 1 or -session-dir set, the node runs a long-lived
// service: before every round, server and clients negotiate the signed
// re-key handshake (PROTOCOL.md §handshake) deciding whether the round
// *resumes* the live key generation — skipping the advertise stage and
// performing zero X25519 key generations and zero agreements — or
// re-keys from scratch. Resume requires -key-rounds > 1 on the server
// (or shard) and succeeds only while every client's session state hash matches the
// server's, nobody carries dropout taint (a client that vanished
// mid-round may have had its mask key reconstructed), and the key
// generation has rounds left. Divergence of a *few* members downgrades
// to a partial re-key — the commit names the divergent subset, only
// their pairwise edges re-key, and everyone else keeps cached secrets —
// while broader divergence falls back to a clean full re-key.
//
// Session-mode clients are churn-tolerant on the wire too: they dial
// with capped exponential backoff (the service may come up late), and a
// transport failure mid-round forfeits that round instead of killing the
// process — the client re-dials, re-hellos, and rejoins at the next
// handshake, where its in-flight taint lands it in the divergent subset
// and re-keys only its own edges.
//
// -session-dir makes clients persist their session (key pairs, cached
// pairwise secrets, ratchet position — never expanded masks) to an
// AEAD-encrypted store after the handshake and after each completed
// round, keyed by the contents of -session-key-file (created with random
// bytes on first use). A client process that crashes or is restarted
// between rounds re-dials with the same -session-dir and rejoins the
// service on its restored session: if nothing diverged, its next round
// resumes with zero key work. Restarting *mid-round* leaves the stored
// session tainted, so the next handshake re-keys — dropping the store
// entirely also just forces a re-key.
//
// The handshake is Ed25519-signed when the server is given
// -sign-key-file (created on first use; the verification key is printed
// at startup). Clients pin it with -server-pub <hex>; without the pin
// they accept unsigned handshakes (semi-honest deployments).
//
// # Verifiable round transcripts
//
// -transcript makes the server (or each shard aggregator and the root
// combiner) commit every round to a Merkle transcript — roster,
// advertise keys, masked-input digests — chain the round root to the
// previous one, sign it when -sign-key-file is set, and serve every
// surviving client an inclusion proof for its own contribution
// (PROTOCOL.md §transcript). Clients opt in with -verify-transcript:
// the round fails loudly unless the proof verifies against the
// committed root, the signature checks out under the -server-pub pin,
// and the root chains from the previous audited round. Clients of a
// sharded topology additionally audit the combiner tier — the shard
// root's inclusion in the combiner's own signed tree — pinning the
// combiner's key with -combiner-pub. Enable -transcript on every
// aggregator role of a topology together: a shard relays the combiner
// tier only when both sides emit it.
package main

import (
	"bytes"
	"context"
	"crypto/rand"
	"encoding/hex"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"strconv"
	"strings"
	"sync"
	"time"

	"repro/internal/core"
	"repro/internal/engine"
	"repro/internal/secagg"
	"repro/internal/sessionstore"
	"repro/internal/sig"
	"repro/internal/transcript"
	"repro/internal/transport"
)

func main() {
	if err := run(os.Args[1:], os.Stdout, os.Stderr); err != nil {
		if !errors.Is(err, flag.ErrHelp) {
			fmt.Fprintln(os.Stderr, "dordis-node:", err)
		}
		os.Exit(1)
	}
}

// node is one invocation's output streams; the roles are its methods, so
// tests can run several parties in one process and read what each printed.
type node struct {
	out, errOut io.Writer
}

func (n node) printf(format string, args ...any) { fmt.Fprintf(n.out, format, args...) }

func (n node) warnf(format string, args ...any) {
	fmt.Fprintf(n.errOut, "dordis-node: "+format+"\n", args...)
}

// config is one party's whole configuration: the flags as parsed, then
// what resolve and open derive from them. Every role runs from one value;
// the self-tests hand each party they start a copy.
type config struct {
	role, clients                 string
	listen, connect, combinerAddr string
	id, value, shardID            uint64
	noiseEpoch                    uint64
	threshold, dim, tolerance     int
	mu                            float64
	deadline, combineDeadline     time.Duration
	rounds, keyRounds             int
	sessionDir, sessionKeyFile    string
	signKeyFile                   string
	serverPubHex, combinerPubHex  string
	transcript, verifyTranscript  bool
	shards, shardQuorum           int
	killShard                     int

	// resolve: the parsed -clients, the round config over this party's
	// roster (server, shard and client roles) and the client's transcript
	// auditors (nil without -verify-transcript).
	ids       []uint64
	scfg      secagg.Config
	serverPub []byte // the client's -server-pub pin, decoded
	aud       *transcript.Auditor
	caud      *transcript.CombineAuditor
	// open: what the role keeps on disk. A nil signer means unsigned
	// operation, a nil store that sessions live in process memory.
	signer *sig.Signer
	store  *sessionstore.Store
}

// flags declares the command line over c.
func (c *config) flags(fs *flag.FlagSet) {
	fs.StringVar(&c.role, "role", "selftest", "server | client | selftest | combiner | shard | shardtest")
	fs.StringVar(&c.listen, "listen", "127.0.0.1:7700", "server listen address")
	fs.StringVar(&c.connect, "connect", "127.0.0.1:7700", "client: server address")
	fs.Uint64Var(&c.id, "id", 0, "client id (must appear in -clients)")
	fs.StringVar(&c.clients, "clients", "1,2,3,4,5", "comma-separated sampled client ids")
	fs.IntVar(&c.threshold, "threshold", 3, "SecAgg threshold t")
	fs.IntVar(&c.dim, "dim", 64, "vector dimension")
	fs.Uint64Var(&c.value, "value", 1, "client: constant vector value")
	fs.IntVar(&c.tolerance, "tolerance", 1, "XNoise dropout tolerance T (0 = plain SecAgg)")
	fs.Float64Var(&c.mu, "mu", 25, "XNoise central noise variance target")
	fs.DurationVar(&c.deadline, "deadline", 3*time.Second, "per-stage collection deadline")
	fs.Uint64Var(&c.noiseEpoch, "noise-epoch", 0,
		"XNoise draw-sequence version: 0 = Poisson-splitting sampler, 1 = CDF inversion throughout; in session mode the server announces it via the handshake and clients adopt the committed value")

	fs.IntVar(&c.rounds, "rounds", 1,
		"consecutive rounds to run; > 1 enables the per-round re-key handshake")
	fs.StringVar(&c.sessionDir, "session-dir", "",
		"client: directory of the AEAD-encrypted session store; enables session persistence and the handshake")
	fs.StringVar(&c.sessionKeyFile, "session-key-file", "",
		"client: file holding the session store's key material (created with random bytes on first use; defaults to <session-dir>/store.key)")
	fs.IntVar(&c.keyRounds, "key-rounds", 1,
		"server/shard: rounds one key generation may serve; > 1 lets handshakes resume sessions across rounds, <= 1 re-keys every round (conservative default)")
	fs.StringVar(&c.signKeyFile, "sign-key-file", "",
		"server/shard/combiner: Ed25519 seed file for signing handshake offers/commits and transcript roots (created on first use; prints the verification key)")
	fs.StringVar(&c.serverPubHex, "server-pub", "",
		"client: hex Ed25519 verification key; when set, unsigned or mis-signed handshakes are rejected")

	fs.BoolVar(&c.transcript, "transcript", false,
		"server/shard/combiner: commit each round to a Merkle transcript with chained, signed roots (-sign-key-file) and serve clients inclusion proofs; enable on every aggregator role of a topology together")
	fs.BoolVar(&c.verifyTranscript, "verify-transcript", false,
		"client: require and verify the round transcript proof for this client's own contribution; pins -server-pub when set (and -combiner-pub for the combiner tier of sharded runs)")
	fs.StringVar(&c.combinerPubHex, "combiner-pub", "",
		"client: hex Ed25519 verification key of the combiner's transcript signer (sharded runs with -verify-transcript)")

	fs.IntVar(&c.shards, "shards", 1,
		"shard count S of the two-level topology; > 1 makes clients derive their shard sub-roster from -clients (roles combiner/shard/shardtest; see sharded.go)")
	fs.Uint64Var(&c.shardID, "shard-id", 0,
		"shard: this aggregator's shard id (0..S-1, also its id on the combiner connection)")
	fs.StringVar(&c.combinerAddr, "combiner-addr", "127.0.0.1:7800",
		"shard: root combiner address to fold the shard partial into")
	fs.IntVar(&c.shardQuorum, "shard-quorum", 0,
		"combiner: minimum shard partials to fold (0 = all); missing shards above it degrade the round instead of aborting")
	fs.DurationVar(&c.combineDeadline, "combine-deadline", 60*time.Second,
		"combiner: bound for collecting shard partials (must cover a full shard round); shard: bound for the folded report")
	fs.IntVar(&c.killShard, "kill-shard", -1,
		"shard/shardtest: crash this shard aggregator on its first masked input (-1 = none)")
}

// sessions reports whether the party runs the per-round handshake.
func (c *config) sessions() bool { return c.rounds > 1 || c.sessionDir != "" }

// resolve validates the flags against the role, once, and derives what the
// role runs on. It touches neither the network nor the disk.
func (c *config) resolve() error {
	var err error
	if c.ids, err = parseIDs(c.clients); err != nil {
		return err
	}
	c.rounds = max(c.rounds, 1)

	// split is how many aggregators share the round: a shard, and a sharded
	// client, aggregate inside one sub-roster and draw the noise share mu/S.
	roster, split := c.ids, 1
	switch c.role {
	case "combiner", "selftest", "shardtest":
		return nil // no round of their own; the self-tests resolve one config per party
	case "server":
	case "shard":
		split = c.shards
	case "client":
		if c.id == 0 {
			return fmt.Errorf("client needs -id")
		}
		if c.shards > 1 {
			split = c.shards
		}
		if c.serverPub, err = parsePub("-server-pub", c.serverPubHex); err != nil {
			return err
		}
		combinerPub, err := parsePub("-combiner-pub", c.combinerPubHex)
		if err != nil {
			return err
		}
		// The flat-tier auditor pins the server key; sharded runs add the
		// combiner-tier auditor pinning the combiner's.
		if c.verifyTranscript {
			c.aud = transcript.NewAuditor(c.serverPub)
			if c.shards > 1 {
				c.caud = transcript.NewCombineAuditor(combinerPub)
			}
		}
	default:
		return fmt.Errorf("unknown role %q", c.role)
	}
	if split > 1 || c.role == "shard" { // a shard validates its -shard-id even at -shards 1
		if roster, err = c.shardRoster(); err != nil {
			return err
		}
	}
	c.scfg, err = c.secAggConfig(roster, split)
	return err
}

// open loads what the role keeps on disk: the aggregator's signing key
// (only when the handshake or the transcript layer will sign with it) and
// the client's session store. One signer serves both the handshake and the
// transcript chain, so clients pin a single -server-pub for both layers.
func (n node) open(c *config) (err error) {
	switch c.role {
	case "server", "shard":
		if c.sessions() || c.transcript {
			c.signer, err = n.loadSigner(c.signKeyFile, "-server-pub")
		}
	case "combiner":
		if c.transcript {
			c.signer, err = n.loadSigner(c.signKeyFile, "-combiner-pub")
		}
	case "client":
		if c.sessions() {
			c.store, err = openStore(c.sessionDir, c.sessionKeyFile)
		}
	}
	return err
}

// run parses the command line and runs the selected role to completion.
func run(args []string, stdout, stderr io.Writer) error {
	fs := flag.NewFlagSet("dordis-node", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var cfg config
	cfg.flags(fs)
	if err := fs.Parse(args); err != nil {
		return err
	}
	if err := cfg.resolve(); err != nil {
		return err
	}
	n := node{out: stdout, errOut: stderr}
	if err := n.open(&cfg); err != nil {
		return err
	}
	return n.start(cfg, nil)
}

// start runs the role a resolved config names; ln, when non-nil, is an
// already open listener for it to serve on (the self-tests open their
// parties' to learn the addresses).
func (n node) start(cfg config, ln *transport.TCPServer) error {
	switch cfg.role {
	case "server", "shard":
		return n.serve(cfg, ln)
	case "combiner":
		return n.combiner(cfg, ln)
	case "client":
		return n.join(cfg)
	default:
		return n.selfTest(cfg)
	}
}

func parseIDs(s string) ([]uint64, error) {
	parts := strings.Split(s, ",")
	out := make([]uint64, 0, len(parts))
	for _, p := range parts {
		v, err := strconv.ParseUint(strings.TrimSpace(p), 10, 64)
		if err != nil {
			return nil, fmt.Errorf("bad client id %q: %w", p, err)
		}
		out = append(out, v)
	}
	return out, nil
}

// loadSigner loads (or creates) the role's Ed25519 signing key, printing
// the verification key next to the flag clients pin it with. An empty
// path means unsigned operation (semi-honest mode).
func (n node) loadSigner(path, pinFlag string) (*sig.Signer, error) {
	if path == "" {
		return nil, nil
	}
	seed, err := loadOrCreateKey(path)
	if err != nil {
		return nil, err
	}
	signer, err := sig.NewSigner(bytes.NewReader(seed[:32]))
	if err != nil {
		return nil, err
	}
	n.printf("signing enabled; clients pin with %s %s\n", pinFlag, hex.EncodeToString(signer.Public()))
	return signer, nil
}

// recorder builds the -transcript recorder (nil when off). One recorder
// spans every round of the process so the round roots chain.
func (c *config) recorder() *transcript.Recorder {
	if !c.transcript {
		return nil
	}
	return transcript.NewRecorder(c.signer)
}

// printAudit reports the last verified transcript roots after a round
// (no-op without -verify-transcript).
func (n node) printAudit(id uint64, aud *transcript.Auditor, caud *transcript.CombineAuditor) {
	tier := func(what string, h []transcript.RootRecord) {
		if len(h) > 0 {
			last := h[len(h)-1]
			n.printf("client %d: %s verified, round %d root %s\n", id, what, last.Round, shortRoot(last.Root))
		}
	}
	if aud != nil {
		tier("transcript", aud.History())
	}
	if caud != nil {
		tier("combiner tier", caud.History())
	}
}

// printRecorderTip reports the chained round root after a round (no-op
// without -transcript).
func (n node) printRecorderTip(rec *transcript.Recorder) {
	if rec == nil {
		return
	}
	if tip, ok := rec.Tip(); ok {
		n.printf("transcript root %s (chained)\n", shortRoot(tip))
	}
}

func shortRoot(r [32]byte) string { return hex.EncodeToString(r[:8]) }

// loadOrCreateKey reads key material from path, creating the file with 32
// random bytes (0600) on first use — shared by the handshake signing seed
// and the session store key.
func loadOrCreateKey(path string) ([]byte, error) {
	material, err := os.ReadFile(path)
	if os.IsNotExist(err) {
		material = make([]byte, 32)
		if _, err := rand.Read(material); err != nil {
			return nil, err
		}
		if err := os.WriteFile(path, material, 0o600); err != nil {
			return nil, err
		}
	} else if err != nil {
		return nil, err
	}
	if len(material) < 32 {
		return nil, fmt.Errorf("key file %s holds %d bytes, need at least 32", path, len(material))
	}
	return material, nil
}

func parsePub(flagName, hexPub string) ([]byte, error) {
	if hexPub == "" {
		return nil, nil
	}
	pub, err := hex.DecodeString(hexPub)
	if err != nil {
		return nil, fmt.Errorf("bad %s: %w", flagName, err)
	}
	return pub, nil
}

// openStore opens the client's session store, creating the key file with
// random bytes on first use. A nil store means persistence is off
// (-rounds > 1 without -session-dir: sessions live in process memory).
func openStore(dir, keyFile string) (*sessionstore.Store, error) {
	if dir == "" {
		return nil, nil
	}
	if err := os.MkdirAll(dir, 0o700); err != nil {
		return nil, err
	}
	if keyFile == "" {
		keyFile = dir + "/store.key"
	}
	key, err := loadOrCreateKey(keyFile)
	if err != nil {
		return nil, err
	}
	return sessionstore.Open(dir, sessionstore.DeriveKey(key))
}

// listener returns the role's listener: the one it was handed (the
// self-tests open theirs to learn the address) or a new one on -listen.
func (c *config) listener(srv *transport.TCPServer) (*transport.TCPServer, error) {
	if srv != nil {
		return srv, nil
	}
	return transport.ListenTCP(c.listen)
}

// waitForClients blocks until n clients are connected or, when deadline
// is positive, until it expires — the multi-round service must not wedge
// on a permanently dead client at a round boundary (the handshake offers
// past absentees and the round thresholds decide downstream), while
// initial bring-up (deadline 0) waits for the full roster.
func waitForClients(srv transport.ServerConn, n int, deadline time.Duration) {
	start := time.Now()
	for len(srv.Clients()) < n {
		if deadline > 0 && time.Since(start) >= deadline {
			return
		}
		time.Sleep(50 * time.Millisecond)
	}
}

// serve is the server loop — listen, then per round: wait for the clients,
// run the re-key handshake (session mode only), run the round, report.
// The flat single-round server is one iteration without a handshake; a
// shard aggregator (-role shard) is the same loop with an upward
// connection, over which each round's result is folded into the combiner
// instead of kept. srv, when non-nil, is an already open listener to serve
// on.
func (n node) serve(cfg config, srv *transport.TCPServer) error {
	ids := cfg.scfg.ClientIDs
	srv, err := cfg.listener(srv)
	if err != nil {
		return err
	}
	defer srv.Close()
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	conn, rd := transport.ServerConn(srv), round{deadline: cfg.deadline, rec: cfg.recorder()}
	who, where := "secagg server", ""
	if cfg.role == "shard" {
		up, err := sessionDial(ctx, cfg.combinerAddr, cfg.shardID)
		if err != nil {
			return err
		}
		defer up.Close()
		rd.up = &uplink{conn: up, shard: cfg.shardID, deadline: cfg.combineDeadline}
		who, where = fmt.Sprintf("shard %d", cfg.shardID), ", combiner at "+cfg.combinerAddr
		if cfg.killShard >= 0 && uint64(cfg.killShard) == cfg.shardID {
			conn = crashOnMasked{srv, cancel}
		}
	}
	// Only session mode has a key generation to reuse and a handshake to
	// decide it in.
	var sess *secagg.ServerSession
	if cfg.sessions() {
		sess = secagg.NewServerSession()
		where = fmt.Sprintf(", key generations serve up to %d round(s)", max(cfg.keyRounds, 1)) + where
	}
	n.printf("%s listening on %s, %d clients, %d round(s)%s\n", who, srv.Addr(), len(ids), cfg.rounds, where)
	// One engine (one transport fan-in) spans every handshake and round on
	// this connection; a per-round fan-in would steal frames across the
	// handshake/round boundary.
	rd.eng = engine.New(engine.TransportSource(ctx, conn))
	for r := 1; r <= cfg.rounds; r++ {
		// Round 1 waits for the full roster (service bring-up); later
		// rounds wait at most one stage deadline for re-dials, then let
		// the handshake offer past absentees.
		bound := cfg.deadline
		if r == 1 {
			bound = 0
		}
		waitForClients(conn, len(ids), bound)
		label := fmt.Sprintf("round %d", r)
		if rd.up != nil {
			label = who + " " + label
		}
		if sess != nil {
			hs, err := core.RunHandshakeServer(ctx, core.HandshakeConfig{
				Round: uint64(r), Protocol: core.ProtocolSecAgg, ClientIDs: ids,
				KeyRounds: cfg.keyRounds, Deadline: cfg.deadline, Signer: cfg.signer,
				NoiseEpoch: cfg.scfg.NoiseEpoch,
			}, sess, rd.eng, conn)
			if err != nil {
				return err
			}
			rd.hs = &hs
			label += " (" + describe(hs) + ")"
		}
		report, err := serverRound(ctx, conn, cfg.scfg, sess, rd)
		if err != nil {
			return err
		}
		n.printf("%s: %s", label, report)
		n.printRecorderTip(rd.rec)
	}
	return nil
}

func describe(hs core.Handshake) string {
	switch {
	case hs.Partial():
		return fmt.Sprintf("partial re-key of %d member(s), ratchet %d", len(hs.Divergent), hs.Ratchet)
	case hs.Resume:
		return fmt.Sprintf("resumed, ratchet %d", hs.Ratchet)
	default:
		return "re-keyed"
	}
}

// sessionDial is the long-lived party's connect (session-mode clients, a
// shard's leg to its combiner): it tolerates the service coming up after
// it and transient blips, so it dials with capped exponential backoff
// under a bounded budget.
func sessionDial(ctx context.Context, addr string, id uint64) (*transport.TCPClient, error) {
	dctx, cancel := context.WithTimeout(ctx, time.Minute)
	defer cancel()
	return transport.DialRetry(dctx, addr, id)
}

// join is the client loop — dial, then per round: run the re-key handshake
// (session mode only), run the round, report. The single-round client is
// one iteration with no handshake, no store and a plain dial: any failure
// is final. A session-mode client outlives failures instead.
func (n node) join(cfg config) error {
	id, sessions := cfg.id, cfg.sessions()
	ctx := context.Background()
	var (
		sess   *secagg.Session
		record string
		conn   *transport.TCPClient
		err    error
	)
	if sessions {
		record = fmt.Sprintf("client-%d", id)
		if sess, err = n.loadSession(cfg.store, record); err != nil {
			return err
		}
		conn, err = sessionDial(ctx, cfg.connect, id)
	} else {
		conn, err = transport.DialTCP(cfg.connect, id)
	}
	if err != nil {
		return err
	}
	defer func() { conn.Close() }()
	// redial recovers the session loop from a failure mid-round. The round
	// is forfeited — the stored session keeps its in-flight taint, so the
	// next handshake lands this client in the divergent subset and re-keys
	// only its edges — the old connection is torn down, and a fresh one is
	// dialed with backoff. The next iteration re-hellos on the new
	// connection; the server engine parks hellos that arrive mid-round and
	// replays them into the next handshake.
	redial := func(round int, cause error) error {
		if !sessions {
			return cause
		}
		n.warnf("client %d round %d failed (%v); reconnecting", id, round, cause)
		conn.Close()
		conn, err = sessionDial(ctx, cfg.connect, id)
		return err
	}
	rd := round{aud: cfg.aud, caud: cfg.caud}
	for i := 1; i <= cfg.rounds; i++ {
		if sessions {
			hs, err := core.RunHandshakeClient(ctx, core.ClientHandshakeConfig{
				ID: id, Protocol: core.ProtocolSecAgg, ServerPub: cfg.serverPub, Rand: rand.Reader,
			}, sess, conn)
			if err != nil {
				if err := redial(i, err); err != nil {
					return err
				}
				continue
			}
			// Persist immediately after the handshake: the stored state carries
			// the burned ratchet step and the round-in-flight taint, so a crash
			// mid-round restores into a session the next handshake re-keys (at
			// least this client's edges). The noise epoch is not session state:
			// every round takes it from its own signed commit.
			if err := saveSession(cfg.store, record, sess); err != nil {
				return err
			}
			rd.hs = &hs
		}
		outcome, err := clientRound(ctx, conn, cfg.scfg, id, cfg.value, sess, rd)
		if err != nil {
			if err := redial(i, err); err != nil {
				return err
			}
			continue
		}
		// Persist again with the taint cleared: the next start may resume.
		if err := saveSession(cfg.store, record, sess); err != nil {
			return err
		}
		switch {
		case outcome == "": // no result reached this client
			continue
		case sessions:
			n.printf("client %d round %d (%s): %s\n", id, i, describe(*rd.hs), outcome)
		default:
			n.printf("client %d: round %s\n", id, outcome)
		}
		n.printAudit(id, rd.aud, rd.caud)
	}
	return nil
}

// loadSession restores the client's session record, or starts a fresh
// session when there is no store, no record, or an unreadable one. A store
// auth failure (wrong -session-key-file, tampered record) warns loudly: a
// silently fresh session would re-key every round.
func (n node) loadSession(store *sessionstore.Store, record string) (*secagg.Session, error) {
	if store != nil {
		blob, err := store.Load(record)
		switch {
		case err == nil:
			if sess, err := secagg.UnmarshalSession(blob); err == nil {
				n.printf("restored session %s from store\n", record)
				return sess, nil
			}
			n.warnf("stored session %s unreadable, starting fresh", record)
		case !errors.Is(err, sessionstore.ErrNotFound):
			n.warnf("session store: %v — starting fresh", err)
		}
	}
	return secagg.NewSession(rand.Reader)
}

// saveSession persists one session record (no-op without a store).
func saveSession(store *sessionstore.Store, record string, sess *secagg.Session) error {
	if store == nil {
		return nil
	}
	blob, err := sess.MarshalBinary()
	if err != nil {
		return err
	}
	return store.Save(record, blob)
}

// selfTest runs one whole round in one process over loopback TCP by
// starting the roles above — what -role server|shard|combiner|client run —
// as goroutines, each from its own copy of the config. -role selftest is
// the flat topology (one server; client i contributes the constant i+1);
// -role shardtest is the two-level one (a combiner, -shards shard
// aggregators, every client contributing 1), where -kill-shard makes that
// shard crash mid-round, which a -shard-quorum below -shards must survive
// degraded. With transcripts, throwaway signing keys — pinned by the
// clients exactly as -server-pub / -combiner-pub would — exercise the
// signed two-tier audit without key files. Only the root aggregator (the
// first party) prints, and its outcome is the command's.
func (n node) selfTest(cfg config) error {
	sharded, tier := cfg.role == "shardtest", "shard"
	audit := cfg.transcript || cfg.verifyTranscript
	cfg.transcript, cfg.verifyTranscript = audit, audit
	cfg.rounds, cfg.sessionDir = 1, ""
	if !sharded {
		cfg.shards, tier = 1, "server"
	}
	plan, err := core.NewShardPlan(cfg.ids, cfg.shards)
	if err != nil {
		return err
	}

	// A party is one role to start; stranded ones — the killed shard and its
	// clients — fail by design.
	type party struct {
		config
		name     string
		ln       *transport.TCPServer
		stranded bool
	}
	var parties []*party
	// A listener refused or a config rejected after some were opened must
	// not leak those; a role closes the one it was handed on its own.
	defer func() {
		for _, p := range parties {
			if p.ln != nil {
				p.ln.Close()
			}
		}
	}()
	// add resolves one party's config — all of them before any party starts,
	// so a bad flag fails the command instead of one goroutine — and gives
	// an aggregator its loopback listener and throwaway signing key,
	// returning the address and pin its clients need.
	add := func(c config, name string, stranded bool) (addr, pin string, err error) {
		if err := c.resolve(); err != nil {
			return "", "", err
		}
		p := &party{config: c, name: name, stranded: stranded}
		parties = append(parties, p)
		if c.role == "client" {
			return "", "", nil
		}
		if p.ln, err = transport.ListenTCP("127.0.0.1:0"); err != nil {
			return "", "", err
		}
		if audit {
			if p.signer, err = sig.NewSigner(rand.Reader); err != nil {
				return "", "", err
			}
			pin = hex.EncodeToString(p.signer.Public())
		}
		return p.ln.Addr(), pin, nil
	}
	if sharded {
		comb := cfg
		comb.role = "combiner"
		if cfg.combinerAddr, cfg.combinerPubHex, err = add(comb, "combiner", false); err != nil {
			return err
		}
	}
	for s, roster := range plan.Rosters {
		stranded := sharded && s == cfg.killShard
		agg := cfg
		agg.role, agg.shardID = tier, uint64(s)
		addr, pin, err := add(agg, fmt.Sprintf("%s %d", tier, s), stranded)
		if err != nil {
			return err
		}
		for i, id := range roster {
			cl := cfg
			cl.role, cl.id, cl.value, cl.connect, cl.serverPubHex = "client", id, 1, addr, pin
			if !sharded {
				cl.value = uint64(i + 1)
			}
			if _, _, err := add(cl, fmt.Sprintf("client %d", id), stranded); err != nil {
				return err
			}
		}
	}

	quiet := node{out: io.Discard, errOut: n.errOut}
	errs := make([]error, len(parties))
	var wg sync.WaitGroup
	for i, p := range parties {
		who := quiet
		if i == 0 {
			who = n
		}
		wg.Add(1)
		go func() {
			defer wg.Done()
			errs[i] = who.start(p.config, p.ln)
		}()
	}
	wg.Wait()
	if errs[0] != nil {
		return errs[0]
	}
	// What the root should have printed: the sum of what the live clients
	// fed (a shard the combiner's quorum did not wait for subtracts its own).
	var want uint64
	var live, audited, tierOne, tierTwo int
	for i, p := range parties {
		switch {
		case p.stranded:
		case errs[i] != nil:
			n.warnf("%s: %v", p.name, errs[i])
		case p.role == "client":
			want += p.value
		case p.role != "combiner":
			live++
		}
		if p.aud != nil {
			audited++
			if len(p.aud.History()) > 0 {
				tierOne++
			}
			if p.caud != nil && len(p.caud.History()) > 0 {
				tierTwo++
			}
		}
	}
	n.printf("expected per-coordinate mean ~%d over %d contributing %s(s)\n", want, live, tier)
	if audit {
		line := fmt.Sprintf("transcripts: %d/%d clients verified the %s tier", tierOne, audited, tier)
		if sharded {
			line += fmt.Sprintf(", %d the combiner tier", tierTwo)
		}
		n.printf("%s\n", line)
	}
	return nil
}
