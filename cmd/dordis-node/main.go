// Command dordis-node runs one party of a Dordis aggregation service over
// TCP — the deployment flavor of the protocol stack. Start a server, then
// clients (one process each, e.g. on different machines):
//
//	dordis-node -role server -listen :7700 -clients 1,2,3,4,5 -threshold 3
//	dordis-node -role client -connect host:7700 -id 1 -clients 1,2,3,4,5 -threshold 3 -value 7
//
// Or run the whole round in one process for a smoke test:
//
//	dordis-node -role selftest
//
// Every client contributes a constant vector of its -value; the server
// prints the unmasked aggregate. With -tolerance > 0 the round runs
// XNoise with the given dropout tolerance and target noise level.
//
// -protocol lightsecagg runs the LightSecAgg baseline instead (one-shot
// mask recovery, no DP noise): -tolerance then means the dropout
// tolerance D and -threshold the privacy threshold T. The server, client
// and selftest roles — single round or session mode — are the same code
// under either protocol (substrate.go holds the whole difference);
// transcripts and the sharded roles are SecAgg-only.
//
// # Sessions, resume, and the re-key handshake
//
// With -rounds > 1 or -session-dir set, the node runs a long-lived
// service: before every round, server and clients negotiate the signed
// re-key handshake (PROTOCOL.md §handshake) deciding whether the round
// *resumes* the live key generation — skipping the advertise stage and
// performing zero X25519 key generations and zero agreements — or
// re-keys from scratch. Resume requires -key-rounds > 1 on the server
// and succeeds only while every client's session state hash matches the
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
	"repro/internal/lightsecagg"
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

// run parses the command line and runs the selected role to completion.
func run(args []string, stdout, stderr io.Writer) error {
	fs := flag.NewFlagSet("dordis-node", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var (
		role       = fs.String("role", "selftest", "server | client | selftest | combiner | shard | shardtest")
		listen     = fs.String("listen", "127.0.0.1:7700", "server listen address")
		connect    = fs.String("connect", "127.0.0.1:7700", "client: server address")
		id         = fs.Uint64("id", 0, "client id (must appear in -clients)")
		clients    = fs.String("clients", "1,2,3,4,5", "comma-separated sampled client ids")
		threshold  = fs.Int("threshold", 3, "SecAgg threshold t (lightsecagg: privacy threshold T)")
		dim        = fs.Int("dim", 64, "vector dimension")
		value      = fs.Uint64("value", 1, "client: constant vector value")
		tolerance  = fs.Int("tolerance", 1, "XNoise dropout tolerance T (0 = plain SecAgg; lightsecagg: dropout tolerance D)")
		targetMu   = fs.Float64("mu", 25, "XNoise central noise variance target")
		deadline   = fs.Duration("deadline", 3*time.Second, "per-stage collection deadline")
		protocol   = fs.String("protocol", "secagg", "secagg | lightsecagg")
		noiseEpoch = fs.Uint64("noise-epoch", 0,
			"XNoise draw-sequence version: 0 = Poisson-splitting sampler, 1 = CDF inversion throughout; in session mode the server announces it via the handshake and clients adopt the committed value")

		rounds = fs.Int("rounds", 1,
			"consecutive rounds to run; > 1 enables the per-round re-key handshake")
		sessionDir = fs.String("session-dir", "",
			"client: directory of the AEAD-encrypted session store; enables session persistence and the handshake")
		sessionKeyFile = fs.String("session-key-file", "",
			"client: file holding the session store's key material (created with random bytes on first use; defaults to <session-dir>/store.key)")
		keyRounds = fs.Int("key-rounds", 1,
			"server: rounds one key generation may serve; > 1 lets handshakes resume sessions across rounds, <= 1 re-keys every round (conservative default)")
		signKeyFile = fs.String("sign-key-file", "",
			"server: Ed25519 seed file for signing handshake offers/commits (created on first use; prints the verification key)")
		serverPub = fs.String("server-pub", "",
			"client: hex Ed25519 verification key; when set, unsigned or mis-signed handshakes are rejected")

		transcriptOn = fs.Bool("transcript", false,
			"server/shard/combiner: commit each round to a Merkle transcript with chained, signed roots (-sign-key-file) and serve clients inclusion proofs; enable on every aggregator role of a topology together")
		verifyTranscript = fs.Bool("verify-transcript", false,
			"client: require and verify the round transcript proof for this client's own contribution; pins -server-pub when set (and -combiner-pub for the combiner tier of sharded runs)")
		combinerPubHex = fs.String("combiner-pub", "",
			"client: hex Ed25519 verification key of the combiner's transcript signer (sharded runs with -verify-transcript)")

		shards = fs.Int("shards", 1,
			"shard count S of the two-level topology; > 1 makes clients derive their shard sub-roster from -clients (roles combiner/shard/shardtest; see sharded.go)")
		shardID = fs.Uint64("shard-id", 0,
			"shard: this aggregator's shard id (0..S-1, also its id on the combiner connection)")
		combinerAddr = fs.String("combiner-addr", "127.0.0.1:7800",
			"shard: root combiner address to fold the shard partial into")
		shardQuorum = fs.Int("shard-quorum", 0,
			"combiner: minimum shard partials to fold (0 = all); missing shards above it degrade the round instead of aborting")
		combineDeadline = fs.Duration("combine-deadline", 60*time.Second,
			"combiner: bound for collecting shard partials (must cover a full shard round); shard: bound for the folded report")
		killShard = fs.Int("kill-shard", -1,
			"shardtest: crash this shard aggregator mid-round (-1 = none)")
	)
	if err := fs.Parse(args); err != nil {
		return err
	}
	n := node{out: stdout, errOut: stderr}

	ids, err := parseIDs(*clients)
	if err != nil {
		return err
	}
	sessionsOn := *rounds > 1 || *sessionDir != ""
	sf := shardedFlags{
		shards: *shards, shardID: *shardID, combinerAddr: *combinerAddr,
		shardQuorum: *shardQuorum, combineDeadline: *combineDeadline, killShard: *killShard,
	}

	switch *role {
	case "combiner", "shard", "shardtest":
		if *protocol != "secagg" {
			return fmt.Errorf("the sharded topology supports -protocol secagg only")
		}
		switch *role {
		case "combiner":
			rec, err := n.transcriptRecorder(*transcriptOn, *signKeyFile, "-combiner-pub")
			if err != nil {
				return err
			}
			return n.runCombinerRole(sf, *listen, *rounds, rec)
		case "shard":
			sub, err := shardRoster(ids, sf.shards, sf.shardID)
			if err != nil {
				return err
			}
			scfg, err := secAggConfig(sub, sf.shards, *threshold, *dim, *tolerance, *targetMu, *noiseEpoch)
			if err != nil {
				return err
			}
			rec, err := n.transcriptRecorder(*transcriptOn, *signKeyFile, "-server-pub")
			if err != nil {
				return err
			}
			return n.runShardRole(scfg, sf, *listen, *rounds, *deadline, rec)
		default:
			return n.shardSelfTest(ids, sf, *threshold, *dim, *tolerance, *targetMu, *noiseEpoch, *deadline,
				*transcriptOn || *verifyTranscript)
		}
	}

	var sub substrate
	switch *protocol {
	case "lightsecagg":
		if *transcriptOn || *verifyTranscript {
			return fmt.Errorf("-transcript/-verify-transcript require -protocol secagg")
		}
		lcfg := lightsecagg.Config{ClientIDs: ids, PrivacyT: *threshold, Dropout: *tolerance, Dim: *dim}
		if err := lcfg.Validate(); err != nil {
			return err
		}
		sub = lightSecAggSubstrate(lcfg)
	case "secagg":
		split := 1
		if *shards > 1 && *role == "client" {
			// A sharded client aggregates inside the shard owning its id: narrow
			// the roster to that sub-roster and draw the split noise share mu/S.
			if *id == 0 {
				return fmt.Errorf("client needs -id")
			}
			if ids, err = shardRosterOf(ids, *shards, *id); err != nil {
				return err
			}
			split = *shards
		}
		cfg, err := secAggConfig(ids, split, *threshold, *dim, *tolerance, *targetMu, *noiseEpoch)
		if err != nil {
			return err
		}
		sub = secAggSubstrate(cfg)
	default:
		return fmt.Errorf("unknown protocol %q", *protocol)
	}

	switch *role {
	case "server":
		if sessionsOn {
			// One signer serves both the handshake and the transcript chain,
			// so clients pin a single -server-pub for both layers.
			signer, err := n.loadSigner(*signKeyFile, "-server-pub")
			if err != nil {
				return err
			}
			var rec *transcript.Recorder
			if *transcriptOn {
				rec = transcript.NewRecorder(signer)
			}
			return n.runServerSessions(sub, *listen, *deadline, *rounds, *keyRounds, signer, rec)
		}
		rec, err := n.transcriptRecorder(*transcriptOn, *signKeyFile, "-server-pub")
		if err != nil {
			return err
		}
		return n.runServer(sub, *listen, *deadline, rec)
	case "client":
		if *id == 0 {
			return fmt.Errorf("client needs -id")
		}
		pub, err := parsePub("-server-pub", *serverPub)
		if err != nil {
			return err
		}
		combinerPub, err := parsePub("-combiner-pub", *combinerPubHex)
		if err != nil {
			return err
		}
		r := round{}
		r.aud, r.caud = clientAuditors(*verifyTranscript, pub, combinerPub, *shards > 1)
		if sessionsOn {
			store, err := openStore(*sessionDir, *sessionKeyFile)
			if err != nil {
				return err
			}
			return n.runClientSessions(sub, *connect, *id, *value, *rounds, store, pub, r)
		}
		return n.runClient(sub, *connect, *id, *value, r)
	case "selftest":
		return n.selfTest(sub, *deadline, *transcriptOn || *verifyTranscript)
	default:
		return fmt.Errorf("unknown role %q", *role)
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

// --- session-mode helpers ---

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

// transcriptRecorder builds the -transcript recorder for roles that have
// no other use for the signing key: the key is loaded (or created) only
// when the transcript layer actually needs it. One recorder spans every
// round of the process so the round roots chain.
func (n node) transcriptRecorder(on bool, signKeyFile, pinFlag string) (*transcript.Recorder, error) {
	if !on {
		return nil, nil
	}
	signer, err := n.loadSigner(signKeyFile, pinFlag)
	if err != nil {
		return nil, err
	}
	return transcript.NewRecorder(signer), nil
}

// clientAuditors builds the client's transcript verification state:
// the flat-tier auditor pinning the server key and, for sharded runs,
// the combiner-tier auditor pinning the combiner key. Both are nil
// without -verify-transcript.
func clientAuditors(on bool, serverPub, combinerPub []byte, sharded bool) (
	*transcript.Auditor, *transcript.CombineAuditor) {

	if !on {
		return nil, nil
	}
	aud := transcript.NewAuditor(serverPub)
	if !sharded {
		return aud, nil
	}
	return aud, transcript.NewCombineAuditor(combinerPub)
}

// printAudit reports the last verified transcript roots after a round
// (no-op without -verify-transcript).
func (n node) printAudit(id uint64, aud *transcript.Auditor, caud *transcript.CombineAuditor) {
	if aud == nil {
		return
	}
	if h := aud.History(); len(h) > 0 {
		last := h[len(h)-1]
		n.printf("client %d: transcript verified, round %d root %s\n", id, last.Round, shortRoot(last.Root))
	}
	if caud == nil {
		return
	}
	if h := caud.History(); len(h) > 0 {
		last := h[len(h)-1]
		n.printf("client %d: combiner tier verified, round %d root %s\n", id, last.Round, shortRoot(last.Root))
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

// waitForClients blocks until n clients are connected or, when deadline
// is positive, until it expires — the multi-round service must not wedge
// on a permanently dead client at a round boundary (the handshake offers
// past absentees and the round thresholds decide downstream), while
// initial bring-up (deadline 0) waits for the full roster as the
// single-round roles always have.
func waitForClients(srv *transport.TCPServer, n int, deadline time.Duration) {
	start := time.Now()
	for len(srv.Clients()) < n {
		if deadline > 0 && time.Since(start) >= deadline {
			return
		}
		time.Sleep(50 * time.Millisecond)
	}
}

// --- single-round roles (no handshake; one process, one round) ---

func (n node) runServer(sub substrate, listen string, deadline time.Duration, rec *transcript.Recorder) error {
	srv, err := transport.ListenTCP(listen)
	if err != nil {
		return err
	}
	defer srv.Close()
	n.printf("%s server listening on %s, waiting for %d clients...\n", sub.protocol, srv.Addr(), len(sub.ids))
	waitForClients(srv, len(sub.ids), 0)
	report, err := sub.serverRound(context.Background(), srv, nil, round{deadline: deadline, rec: rec})
	if err != nil {
		return err
	}
	n.printf("%s", report)
	n.printRecorderTip(rec)
	return nil
}

func (n node) runClient(sub substrate, addr string, id, value uint64, r round) error {
	conn, err := transport.DialTCP(addr, id)
	if err != nil {
		return err
	}
	defer conn.Close()
	outcome, err := sub.clientRound(context.Background(), conn, id, value, nil, r)
	if err != nil {
		return err
	}
	if outcome != "" {
		n.printf("client %d: round %s\n", id, outcome)
		n.printAudit(id, r.aud, r.caud)
	}
	return nil
}

// --- session-mode roles (handshake per round, persistent sessions) ---

func (n node) runServerSessions(sub substrate, listen string, deadline time.Duration,
	rounds, keyRounds int, signer *sig.Signer, rec *transcript.Recorder) error {

	srv, err := transport.ListenTCP(listen)
	if err != nil {
		return err
	}
	defer srv.Close()
	n.printf("%s server listening on %s, %d rounds, key generations serve up to %d round(s)\n",
		sub.protocol, srv.Addr(), rounds, max(keyRounds, 1))
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	// One engine (one transport fan-in) spans every handshake and round on
	// this connection; a per-round fan-in would steal frames across the
	// handshake/round boundary.
	eng := engine.New(engine.TransportSource(ctx, srv))
	sess := sub.newServerSession()
	for r := 1; r <= rounds; r++ {
		// Round 1 waits for the full roster (service bring-up); later
		// rounds wait at most one stage deadline for re-dials, then let
		// the handshake offer past absentees.
		bound := deadline
		if r == 1 {
			bound = 0
		}
		waitForClients(srv, len(sub.ids), bound)
		hs, err := core.RunHandshakeServer(ctx, core.HandshakeConfig{
			Round: uint64(r), Protocol: sub.protocol, ClientIDs: sub.ids,
			KeyRounds: keyRounds, Deadline: deadline, Signer: signer,
			NoiseEpoch: sub.noiseEpoch,
		}, sess, eng, srv)
		if err != nil {
			return err
		}
		report, err := sub.serverRound(ctx, srv, sess, round{deadline: deadline, hs: &hs, eng: eng, rec: rec})
		if err != nil {
			return err
		}
		n.printf("round %d (%s): %s", r, describe(hs), report)
		n.printRecorderTip(rec)
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

// sessionDial is the session-mode client's connect: unlike the
// single-round roles, a long-lived client tolerates the service coming up
// after it and transient blips, so it dials with capped exponential
// backoff under a bounded budget.
func sessionDial(ctx context.Context, addr string, id uint64) (*transport.TCPClient, error) {
	dctx, cancel := context.WithTimeout(ctx, time.Minute)
	defer cancel()
	return transport.DialRetry(dctx, addr, id, transport.RetryConfig{})
}

func (n node) runClientSessions(sub substrate, addr string, id, value uint64,
	rounds int, store *sessionstore.Store, serverPub []byte, r round) error {

	record := fmt.Sprintf("%s-%d", sub.record, id)
	sess, err := n.loadSession(sub, store, record)
	if err != nil {
		return err
	}
	ctx := context.Background()
	conn, err := sessionDial(ctx, addr, id)
	if err != nil {
		return err
	}
	defer func() { conn.Close() }()
	// redial recovers the loop from a failure mid-round. The round is
	// forfeited — the stored session keeps its in-flight taint, so the next
	// handshake lands this client in the divergent subset and re-keys only
	// its edges — the old connection is torn down, and a fresh one is
	// dialed with backoff. The next iteration re-hellos on the new
	// connection; the server engine parks hellos that arrive mid-round and
	// replays them into the next handshake.
	redial := func(round int, cause error) error {
		n.warnf("client %d round %d failed (%v); reconnecting", id, round, cause)
		conn.Close()
		conn, err = sessionDial(ctx, addr, id)
		return err
	}
	for i := 1; i <= rounds; i++ {
		hs, err := core.RunHandshakeClient(ctx, core.ClientHandshakeConfig{
			ID: id, Protocol: sub.protocol, ServerPub: serverPub, Rand: rand.Reader,
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
		if err := saveSession(store, record, sess); err != nil {
			return err
		}
		r.hs = &hs
		outcome, err := sub.clientRound(ctx, conn, id, value, sess, r)
		if err != nil {
			if err := redial(i, err); err != nil {
				return err
			}
			continue
		}
		// Persist again with the taint cleared: the next start may resume.
		if err := saveSession(store, record, sess); err != nil {
			return err
		}
		if outcome != "" {
			n.printf("client %d round %d (%s): %s\n", id, i, describe(hs), outcome)
			n.printAudit(id, r.aud, r.caud)
		}
	}
	return nil
}

// loadSession restores the client's session record, or starts a fresh
// session when there is no store, no record, or an unreadable one. A store
// auth failure (wrong -session-key-file, tampered record) warns loudly: a
// silently fresh session would re-key every round.
func (n node) loadSession(sub substrate, store *sessionstore.Store, record string) (clientSession, error) {
	if store != nil {
		blob, err := store.Load(record)
		switch {
		case err == nil:
			if sess, err := sub.unmarshalSession(blob); err == nil {
				n.printf("restored session %s from store\n", record)
				return sess, nil
			}
			n.warnf("stored session %s unreadable, starting fresh", record)
		case !errors.Is(err, sessionstore.ErrNotFound):
			n.warnf("session store: %v — starting fresh", err)
		}
	}
	return sub.newSession()
}

// saveSession persists one session record (no-op without a store).
func saveSession(store *sessionstore.Store, record string, sess clientSession) error {
	if store == nil {
		return nil
	}
	blob, err := sess.MarshalBinary()
	if err != nil {
		return err
	}
	return store.Save(record, blob)
}

// selfTest runs a whole single round in one process over loopback TCP:
// the server role and every client role, client i contributing the
// constant i+1. With transcripts, a throwaway signing key and one auditor
// per client exercise the full signed-transcript path without key files.
func (n node) selfTest(sub substrate, deadline time.Duration, transcriptOn bool) error {
	srv, err := transport.ListenTCP("127.0.0.1:0")
	if err != nil {
		return err
	}
	defer srv.Close()
	var rec *transcript.Recorder
	auds := map[uint64]*transcript.Auditor{}
	if transcriptOn {
		signer, err := sig.NewSigner(rand.Reader)
		if err != nil {
			return err
		}
		rec = transcript.NewRecorder(signer)
		for _, id := range sub.ids {
			auds[id] = transcript.NewAuditor(signer.Public())
		}
	}
	var wg sync.WaitGroup
	for i, id := range sub.ids {
		wg.Add(1)
		go func(id, value uint64) {
			defer wg.Done()
			conn, err := transport.DialTCP(srv.Addr(), id)
			if err != nil {
				n.warnf("client %d dial: %v", id, err)
				return
			}
			defer conn.Close()
			if _, err := sub.clientRound(context.Background(), conn, id, value, nil, round{aud: auds[id]}); err != nil {
				n.warnf("client %d: %v", id, err)
			}
		}(id, uint64(i+1))
	}
	waitForClients(srv, len(sub.ids), 0)
	report, err := sub.serverRound(context.Background(), srv, nil, round{deadline: deadline, rec: rec})
	if err != nil {
		return err
	}
	wg.Wait()
	n.printf("%s", report)
	if rec != nil {
		verified := 0
		for _, a := range auds {
			if len(a.History()) > 0 {
				verified++
			}
		}
		n.printf("transcript verified by %d/%d clients, ", verified, len(auds))
		n.printRecorderTip(rec)
	}
	return nil
}
