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
// tolerance D and -threshold the privacy threshold T.
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
	"os"
	"strconv"
	"strings"
	"sync"
	"time"

	"repro/internal/core"
	"repro/internal/engine"
	"repro/internal/field"
	"repro/internal/lightsecagg"
	"repro/internal/ring"
	"repro/internal/secagg"
	"repro/internal/sessionstore"
	"repro/internal/sig"
	"repro/internal/transcript"
	"repro/internal/transport"
	"repro/internal/xnoise"
)

func main() {
	var (
		role       = flag.String("role", "selftest", "server | client | selftest")
		listen     = flag.String("listen", "127.0.0.1:7700", "server listen address")
		connect    = flag.String("connect", "127.0.0.1:7700", "client: server address")
		id         = flag.Uint64("id", 0, "client id (must appear in -clients)")
		clients    = flag.String("clients", "1,2,3,4,5", "comma-separated sampled client ids")
		threshold  = flag.Int("threshold", 3, "SecAgg threshold t (lightsecagg: privacy threshold T)")
		dim        = flag.Int("dim", 64, "vector dimension")
		value      = flag.Uint64("value", 1, "client: constant vector value")
		tolerance  = flag.Int("tolerance", 1, "XNoise dropout tolerance T (0 = plain SecAgg; lightsecagg: dropout tolerance D)")
		targetMu   = flag.Float64("mu", 25, "XNoise central noise variance target")
		deadline   = flag.Duration("deadline", 3*time.Second, "per-stage collection deadline")
		protocol   = flag.String("protocol", "secagg", "secagg | lightsecagg")
		noiseEpoch = flag.Uint64("noise-epoch", 0,
			"XNoise draw-sequence version: 0 = Poisson-splitting sampler, 1 = CDF inversion throughout; in session mode the server announces it via the handshake and clients adopt the committed value")

		rounds = flag.Int("rounds", 1,
			"consecutive rounds to run; > 1 enables the per-round re-key handshake")
		sessionDir = flag.String("session-dir", "",
			"client: directory of the AEAD-encrypted session store; enables session persistence and the handshake")
		sessionKeyFile = flag.String("session-key-file", "",
			"client: file holding the session store's key material (created with random bytes on first use; defaults to <session-dir>/store.key)")
		keyRounds = flag.Int("key-rounds", 1,
			"server: rounds one key generation may serve; > 1 lets handshakes resume sessions across rounds, <= 1 re-keys every round (conservative default)")
		signKeyFile = flag.String("sign-key-file", "",
			"server: Ed25519 seed file for signing handshake offers/commits (created on first use; prints the verification key)")
		serverPub = flag.String("server-pub", "",
			"client: hex Ed25519 verification key; when set, unsigned or mis-signed handshakes are rejected")

		transcriptOn = flag.Bool("transcript", false,
			"server/shard/combiner: commit each round to a Merkle transcript with chained, signed roots (-sign-key-file) and serve clients inclusion proofs; enable on every aggregator role of a topology together")
		verifyTranscript = flag.Bool("verify-transcript", false,
			"client: require and verify the round transcript proof for this client's own contribution; pins -server-pub when set (and -combiner-pub for the combiner tier of sharded runs)")
		combinerPubHex = flag.String("combiner-pub", "",
			"client: hex Ed25519 verification key of the combiner's transcript signer (sharded runs with -verify-transcript)")

		shards = flag.Int("shards", 1,
			"shard count S of the two-level topology; > 1 makes clients derive their shard sub-roster from -clients (roles combiner/shard/shardtest; see sharded.go)")
		shardID = flag.Uint64("shard-id", 0,
			"shard: this aggregator's shard id (0..S-1, also its id on the combiner connection)")
		combinerAddr = flag.String("combiner-addr", "127.0.0.1:7800",
			"shard: root combiner address to fold the shard partial into")
		shardQuorum = flag.Int("shard-quorum", 0,
			"combiner: minimum shard partials to fold (0 = all); missing shards above it degrade the round instead of aborting")
		combineDeadline = flag.Duration("combine-deadline", 60*time.Second,
			"combiner: bound for collecting shard partials (must cover a full shard round); shard: bound for the folded report")
		killShard = flag.Int("kill-shard", -1,
			"shardtest: crash this shard aggregator mid-round (-1 = none)")
	)
	flag.Parse()

	ids, err := parseIDs(*clients)
	if err != nil {
		fail(err)
	}
	sessionsOn := *rounds > 1 || *sessionDir != ""
	sf := shardedFlags{
		shards: *shards, shardID: *shardID, combinerAddr: *combinerAddr,
		shardQuorum: *shardQuorum, combineDeadline: *combineDeadline, killShard: *killShard,
	}

	switch *role {
	case "combiner", "shard", "shardtest":
		if *protocol != "secagg" {
			fail(fmt.Errorf("the sharded topology supports -protocol secagg only"))
		}
		switch *role {
		case "combiner":
			runCombinerRole(sf, *listen, *rounds,
				transcriptRecorder(*transcriptOn, *signKeyFile, "-combiner-pub"))
		case "shard":
			sub := shardRoster(ids, sf.shards, sf.shardID)
			scfg := shardSecaggConfig(sub, sf.shards, *threshold, *dim, *tolerance, *targetMu, *noiseEpoch)
			runShardRole(scfg, sf, *listen, *rounds, *deadline,
				transcriptRecorder(*transcriptOn, *signKeyFile, "-server-pub"))
		case "shardtest":
			shardSelfTest(ids, sf, *threshold, *dim, *tolerance, *targetMu, *noiseEpoch, *deadline,
				*transcriptOn || *verifyTranscript)
		}
		return
	}

	if *protocol == "lightsecagg" {
		if *transcriptOn || *verifyTranscript {
			fail(fmt.Errorf("-transcript/-verify-transcript require -protocol secagg"))
		}
		lcfg := lightsecagg.Config{
			ClientIDs: ids, PrivacyT: *threshold, Dropout: *tolerance, Dim: *dim,
		}
		if err := lcfg.Validate(); err != nil {
			fail(err)
		}
		switch *role {
		case "server":
			if sessionsOn {
				runServerSessionsLSA(lcfg, *listen, *deadline, *rounds, *keyRounds, loadSigner(*signKeyFile, "-server-pub"))
			} else {
				runServerLSA(lcfg, *listen, *deadline)
			}
		case "client":
			if *id == 0 {
				fail(fmt.Errorf("client needs -id"))
			}
			if sessionsOn {
				runClientSessionsLSA(lcfg, *connect, *id, *value, *rounds,
					openStore(*sessionDir, *sessionKeyFile), parsePub(*serverPub))
			} else {
				runClientLSA(lcfg, *connect, *id, *value)
			}
		case "selftest":
			selfTestLSA(lcfg, *deadline)
		default:
			fail(fmt.Errorf("unknown role %q", *role))
		}
		return
	}
	if *protocol != "secagg" {
		fail(fmt.Errorf("unknown protocol %q", *protocol))
	}
	if *shards > 1 && *role == "client" {
		// A sharded client aggregates inside the shard owning its id: narrow
		// the roster to that sub-roster and draw the split noise share mu/S.
		if *id == 0 {
			fail(fmt.Errorf("client needs -id"))
		}
		ids = shardRosterOf(ids, *shards, *id)
		*targetMu /= float64(*shards)
	}
	cfg := secagg.Config{
		Round:      1,
		ClientIDs:  ids,
		Threshold:  *threshold,
		Bits:       20,
		Dim:        *dim,
		NoiseEpoch: *noiseEpoch,
	}
	if *tolerance > 0 {
		cfg.XNoise = &xnoise.Plan{
			NumClients:       len(ids),
			DropoutTolerance: *tolerance,
			Threshold:        *threshold,
			TargetVariance:   *targetMu,
		}
	}
	if err := cfg.Validate(); err != nil {
		fail(err)
	}

	switch *role {
	case "server":
		if sessionsOn {
			// One signer serves both the handshake and the transcript chain,
			// so clients pin a single -server-pub for both layers.
			signer := loadSigner(*signKeyFile, "-server-pub")
			runServerSessions(cfg, *listen, *deadline, *rounds, *keyRounds, signer,
				recorderFrom(*transcriptOn, signer))
		} else {
			runServer(cfg, *listen, *deadline,
				transcriptRecorder(*transcriptOn, *signKeyFile, "-server-pub"))
		}
	case "client":
		if *id == 0 {
			fail(fmt.Errorf("client needs -id"))
		}
		aud, caud := clientAuditors(*verifyTranscript, parsePub(*serverPub),
			parsePub(*combinerPubHex), *shards > 1)
		if sessionsOn {
			runClientSessions(cfg, *connect, *id, *value, *rounds,
				openStore(*sessionDir, *sessionKeyFile), parsePub(*serverPub), aud, caud)
		} else {
			runClient(cfg, *connect, *id, *value, aud, caud)
		}
	case "selftest":
		selfTest(cfg, *listen, *deadline, *transcriptOn || *verifyTranscript)
	default:
		fail(fmt.Errorf("unknown role %q", *role))
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

func fail(err error) {
	fmt.Fprintln(os.Stderr, "dordis-node:", err)
	os.Exit(1)
}

// --- session-mode helpers ---

// loadSigner loads (or creates) the role's Ed25519 signing key, printing
// the verification key next to the flag clients pin it with. An empty
// path means unsigned operation (semi-honest mode).
func loadSigner(path, pinFlag string) *sig.Signer {
	if path == "" {
		return nil
	}
	seed := loadOrCreateKey(path)
	signer, err := sig.NewSigner(bytes.NewReader(seed[:32]))
	if err != nil {
		fail(err)
	}
	fmt.Printf("signing enabled; clients pin with %s %s\n",
		pinFlag, hex.EncodeToString(signer.Public()))
	return signer
}

// recorderFrom wraps an already-loaded signer in a transcript recorder
// when -transcript is on. One recorder spans every round of the process
// so the round roots chain.
func recorderFrom(on bool, signer *sig.Signer) *transcript.Recorder {
	if !on {
		return nil
	}
	return transcript.NewRecorder(signer)
}

// transcriptRecorder is recorderFrom for roles that have no other use
// for the signing key: the key is loaded (or created) only when the
// transcript layer actually needs it.
func transcriptRecorder(on bool, signKeyFile, pinFlag string) *transcript.Recorder {
	if !on {
		return nil
	}
	return transcript.NewRecorder(loadSigner(signKeyFile, pinFlag))
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
func printAudit(id uint64, aud *transcript.Auditor, caud *transcript.CombineAuditor) {
	if aud == nil {
		return
	}
	if h := aud.History(); len(h) > 0 {
		last := h[len(h)-1]
		fmt.Printf("client %d: transcript verified, round %d root %s\n",
			id, last.Round, shortRoot(last.Root))
	}
	if caud == nil {
		return
	}
	if h := caud.History(); len(h) > 0 {
		last := h[len(h)-1]
		fmt.Printf("client %d: combiner tier verified, round %d root %s\n",
			id, last.Round, shortRoot(last.Root))
	}
}

// printRecorderTip reports the chained round root after a round (no-op
// without -transcript).
func printRecorderTip(rec *transcript.Recorder) {
	if rec == nil {
		return
	}
	if tip, ok := rec.Tip(); ok {
		fmt.Printf("transcript root %s (chained)\n", shortRoot(tip))
	}
}

func shortRoot(r [32]byte) string { return hex.EncodeToString(r[:8]) }

// loadOrCreateKey reads key material from path, creating the file with 32
// random bytes (0600) on first use — shared by the handshake signing seed
// and the session store key.
func loadOrCreateKey(path string) []byte {
	material, err := os.ReadFile(path)
	if os.IsNotExist(err) {
		material = make([]byte, 32)
		if _, err := rand.Read(material); err != nil {
			fail(err)
		}
		if err := os.WriteFile(path, material, 0o600); err != nil {
			fail(err)
		}
	} else if err != nil {
		fail(err)
	}
	if len(material) < 32 {
		fail(fmt.Errorf("key file %s holds %d bytes, need at least 32", path, len(material)))
	}
	return material
}

func parsePub(hexPub string) []byte {
	if hexPub == "" {
		return nil
	}
	pub, err := hex.DecodeString(hexPub)
	if err != nil {
		fail(fmt.Errorf("bad -server-pub: %w", err))
	}
	return pub
}

// openStore opens the client's session store, creating the key file with
// random bytes on first use. A nil return means persistence is off
// (-rounds > 1 without -session-dir: sessions live in process memory).
func openStore(dir, keyFile string) *sessionstore.Store {
	if dir == "" {
		return nil
	}
	if err := os.MkdirAll(dir, 0o700); err != nil {
		fail(err)
	}
	if keyFile == "" {
		keyFile = dir + "/store.key"
	}
	st, err := sessionstore.Open(dir, sessionstore.DeriveKey(loadOrCreateKey(keyFile)))
	if err != nil {
		fail(err)
	}
	return st
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

func runServer(cfg secagg.Config, listen string, deadline time.Duration, rec *transcript.Recorder) {
	srv, err := transport.ListenTCP(listen)
	if err != nil {
		fail(err)
	}
	defer srv.Close()
	fmt.Printf("server listening on %s, waiting for %d clients...\n", srv.Addr(), len(cfg.ClientIDs))
	waitForClients(srv, len(cfg.ClientIDs), 0)
	res, err := core.RunWireServer(context.Background(),
		core.WireServerConfig{SecAgg: cfg, StageDeadline: deadline, Transcript: rec}, srv)
	if err != nil {
		fail(err)
	}
	printResult(cfg, res)
	printRecorderTip(rec)
}

func runClient(cfg secagg.Config, addr string, id, value uint64,
	aud *transcript.Auditor, caud *transcript.CombineAuditor) {

	conn, err := transport.DialTCP(addr, id)
	if err != nil {
		fail(err)
	}
	defer conn.Close()
	res, err := core.RunWireClient(context.Background(), core.WireClientConfig{
		SecAgg: cfg, ID: id, Input: constInput(cfg, value), DropBefore: core.NoDrop, Rand: rand.Reader,
		Transcript: aud, CombineTranscript: caud,
	}, conn)
	if err != nil {
		fail(err)
	}
	if res != nil {
		fmt.Printf("client %d: round complete, %d survivors\n", id, len(res.Survivors))
		printAudit(id, aud, caud)
	}
}

func constInput(cfg secagg.Config, value uint64) ring.Vector {
	input := ring.NewVector(cfg.Bits, cfg.Dim)
	for i := range input.Data {
		input.Data[i] = value & input.Mask()
	}
	return input
}

// --- session-mode roles (handshake per round, persistent sessions) ---

func runServerSessions(cfg secagg.Config, listen string, deadline time.Duration,
	rounds, keyRounds int, signer *sig.Signer, rec *transcript.Recorder) {

	srv, err := transport.ListenTCP(listen)
	if err != nil {
		fail(err)
	}
	defer srv.Close()
	fmt.Printf("server listening on %s, %d rounds, key generations serve up to %d round(s)\n",
		srv.Addr(), rounds, max(keyRounds, 1))
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	// One engine (one transport fan-in) spans every handshake and round on
	// this connection; a per-round fan-in would steal frames across the
	// handshake/round boundary.
	eng := engine.New(engine.TransportSource(ctx, srv))
	sess := secagg.NewServerSession()
	for r := 1; r <= rounds; r++ {
		// Round 1 waits for the full roster (service bring-up); later
		// rounds wait at most one stage deadline for re-dials, then let
		// the handshake offer past absentees.
		bound := deadline
		if r == 1 {
			bound = 0
		}
		waitForClients(srv, len(cfg.ClientIDs), bound)
		hs, err := core.RunHandshakeServer(ctx, core.HandshakeConfig{
			Round: uint64(r), Protocol: core.ProtocolSecAgg, ClientIDs: cfg.ClientIDs,
			KeyRounds: keyRounds, Deadline: deadline, Signer: signer,
			NoiseEpoch: cfg.NoiseEpoch,
		}, sess, eng, srv)
		if err != nil {
			fail(err)
		}
		rcfg := cfg
		rcfg.Round = hs.Round
		rcfg.KeyRatchet = hs.Ratchet
		rcfg.NoiseEpoch = hs.NoiseEpoch
		res, err := core.RunWireServer(ctx, core.WireServerConfig{
			SecAgg: rcfg, StageDeadline: deadline,
			Session: sess, Resume: hs.Resume, Divergent: hs.Divergent, Engine: eng,
			Transcript: rec,
		}, srv)
		if err != nil {
			fail(err)
		}
		fmt.Printf("round %d (%s): ", r, describe(hs))
		printResult(rcfg, res)
		printRecorderTip(rec)
	}
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
func sessionDial(ctx context.Context, addr string, id uint64) *transport.TCPClient {
	dctx, cancel := context.WithTimeout(ctx, time.Minute)
	defer cancel()
	conn, err := transport.DialRetry(dctx, addr, id, transport.RetryConfig{})
	if err != nil {
		fail(err)
	}
	return conn
}

// redial recovers the session-mode client loop from a failure mid-round.
// The round is forfeited — the stored session keeps its in-flight taint,
// so the next handshake lands this client in the divergent subset and
// re-keys only its edges — the old connection is torn down, and a fresh
// one is dialed with backoff. The caller's next loop iteration re-hellos
// on the new connection; the server engine parks hellos that arrive
// mid-round and replays them into the next handshake.
func redial(ctx context.Context, old *transport.TCPClient, addr string, id uint64,
	round int, cause error) *transport.TCPClient {

	fmt.Fprintf(os.Stderr, "dordis-node: client %d round %d failed (%v); reconnecting\n", id, round, cause)
	old.Close()
	return sessionDial(ctx, addr, id)
}

func runClientSessions(cfg secagg.Config, addr string, id, value uint64,
	rounds int, store *sessionstore.Store, serverPub []byte,
	aud *transcript.Auditor, caud *transcript.CombineAuditor) {

	record := fmt.Sprintf("client-%d", id)
	sess := loadSession(store, record)
	ctx := context.Background()
	conn := sessionDial(ctx, addr, id)
	defer func() { conn.Close() }()
	for r := 1; r <= rounds; r++ {
		hs, err := core.RunHandshakeClient(ctx, core.ClientHandshakeConfig{
			ID: id, Protocol: core.ProtocolSecAgg, ServerPub: serverPub, Rand: rand.Reader,
		}, sess, conn)
		if err != nil {
			conn = redial(ctx, conn, addr, id, r, err)
			continue
		}
		// Persist immediately after the handshake: the stored state carries
		// the burned ratchet step, the round-in-flight taint, and the
		// committed noise epoch, so a crash mid-round restores into a
		// session the next handshake re-keys (at least this client's edges)
		// under the sampler it negotiated.
		sess.SetNoiseEpoch(hs.NoiseEpoch)
		saveSession(store, record, sess)
		rcfg := cfg
		rcfg.Round = hs.Round
		rcfg.KeyRatchet = hs.Ratchet
		rcfg.NoiseEpoch = hs.NoiseEpoch
		res, err := core.RunWireClient(ctx, core.WireClientConfig{
			SecAgg: rcfg, ID: id, Input: constInput(rcfg, value),
			DropBefore: core.NoDrop, Rand: rand.Reader,
			Session: sess, Resume: hs.Resume, Divergent: hs.Divergent,
			Transcript: aud, CombineTranscript: caud,
		}, conn)
		if err != nil {
			conn = redial(ctx, conn, addr, id, r, err)
			continue
		}
		// Persist again with the taint cleared: the next start may resume.
		saveSession(store, record, sess)
		if res != nil {
			fmt.Printf("client %d round %d (%s): complete, %d survivors\n",
				id, r, describe(hs), len(res.Survivors))
			printAudit(id, aud, caud)
		}
	}
}

// loadStoredSession restores a session record through unmarshal, or
// returns ok=false when the caller should start fresh. A store auth
// failure (wrong -session-key-file, tampered record) warns loudly: a
// silently fresh session would re-key every round.
func loadStoredSession[T any](store *sessionstore.Store, record string,
	unmarshal func([]byte) (T, error)) (T, bool) {

	var zero T
	if store == nil {
		return zero, false
	}
	blob, err := store.Load(record)
	switch {
	case err == nil:
		sess, err := unmarshal(blob)
		if err == nil {
			fmt.Printf("restored session %s from store\n", record)
			return sess, true
		}
		fmt.Fprintf(os.Stderr, "dordis-node: stored session %s unreadable, starting fresh\n", record)
	case !errors.Is(err, sessionstore.ErrNotFound):
		fmt.Fprintf(os.Stderr, "dordis-node: session store: %v — starting fresh\n", err)
	}
	return zero, false
}

// saveStoredSession persists one session record (no-op without a store).
func saveStoredSession(store *sessionstore.Store, record string, marshal func() ([]byte, error)) {
	if store == nil {
		return
	}
	blob, err := marshal()
	if err != nil {
		fail(err)
	}
	if err := store.Save(record, blob); err != nil {
		fail(err)
	}
}

func loadSession(store *sessionstore.Store, record string) *secagg.Session {
	if sess, ok := loadStoredSession(store, record, secagg.UnmarshalSession); ok {
		return sess
	}
	sess, err := secagg.NewSession(rand.Reader)
	if err != nil {
		fail(err)
	}
	return sess
}

func saveSession(store *sessionstore.Store, record string, sess *secagg.Session) {
	saveStoredSession(store, record, sess.MarshalBinary)
}

func selfTest(cfg secagg.Config, listen string, deadline time.Duration, transcriptOn bool) {
	srv, err := transport.ListenTCP("127.0.0.1:0")
	if err != nil {
		fail(err)
	}
	defer srv.Close()
	// In-process round: a throwaway signing key and one auditor per client
	// exercise the full signed-transcript path without any key files.
	var rec *transcript.Recorder
	auds := map[uint64]*transcript.Auditor{}
	if transcriptOn {
		signer, err := sig.NewSigner(rand.Reader)
		if err != nil {
			fail(err)
		}
		rec = transcript.NewRecorder(signer)
		for _, id := range cfg.ClientIDs {
			auds[id] = transcript.NewAuditor(signer.Public())
		}
	}
	var wg sync.WaitGroup
	for i, id := range cfg.ClientIDs {
		id := id
		value := uint64(i + 1)
		wg.Add(1)
		go func() {
			defer wg.Done()
			conn, err := transport.DialTCP(srv.Addr(), id)
			if err != nil {
				fmt.Fprintln(os.Stderr, "client", id, "dial:", err)
				return
			}
			defer conn.Close()
			if _, err := core.RunWireClient(context.Background(), core.WireClientConfig{
				SecAgg: cfg, ID: id, Input: constInput(cfg, value), DropBefore: core.NoDrop, Rand: rand.Reader,
				Transcript: auds[id],
			}, conn); err != nil {
				fmt.Fprintln(os.Stderr, "client", id, ":", err)
			}
		}()
	}
	waitForClients(srv, len(cfg.ClientIDs), 0)
	res, err := core.RunWireServer(context.Background(),
		core.WireServerConfig{SecAgg: cfg, StageDeadline: deadline, Transcript: rec}, srv)
	if err != nil {
		fail(err)
	}
	wg.Wait()
	printResult(cfg, res)
	if rec != nil {
		verified := 0
		for _, a := range auds {
			if len(a.History()) > 0 {
				verified++
			}
		}
		fmt.Printf("transcript verified by %d/%d clients, ", verified, len(auds))
		printRecorderTip(rec)
	}
}

func printResult(cfg secagg.Config, res *secagg.Result) {
	got := ring.Vector{Bits: cfg.Bits, Data: res.Sum}
	centered := got.Centered()
	var mean float64
	for _, v := range centered {
		mean += float64(v)
	}
	mean /= float64(len(centered))
	fmt.Printf("round complete: survivors=%v dropped=%v\n", res.Survivors, res.Dropped)
	fmt.Printf("aggregate per-coordinate mean: %.2f (first 8: %v)\n", mean, centered[:min(8, len(centered))])
	if len(res.RemovedComponents) > 0 {
		fmt.Printf("XNoise removed components: %v\n", res.RemovedComponents)
	}
}

func min(a, b int) int {
	if a < b {
		return a
	}
	return b
}

func max(a, b int) int {
	if a > b {
		return a
	}
	return b
}

// --- LightSecAgg roles ---

func lsaInput(dim int, value uint64) []field.Element {
	out := make([]field.Element, dim)
	for i := range out {
		out[i] = lightsecagg.Lift(int64(value))
	}
	return out
}

func printResultLSA(sum []field.Element) {
	var mean float64
	for _, e := range sum {
		mean += float64(lightsecagg.Center(e))
	}
	mean /= float64(len(sum))
	first := make([]int64, 0, 8)
	for i := 0; i < min(8, len(sum)); i++ {
		first = append(first, lightsecagg.Center(sum[i]))
	}
	fmt.Printf("lightsecagg round complete: per-coordinate mean %.2f (first 8: %v)\n", mean, first)
}

func runServerLSA(cfg lightsecagg.Config, listen string, deadline time.Duration) {
	srv, err := transport.ListenTCP(listen)
	if err != nil {
		fail(err)
	}
	defer srv.Close()
	fmt.Printf("lightsecagg server on %s, waiting for %d clients...\n", srv.Addr(), len(cfg.ClientIDs))
	waitForClients(srv, len(cfg.ClientIDs), 0)
	sum, err := lightsecagg.RunWireServer(context.Background(),
		lightsecagg.WireServerConfig{Config: cfg, StageDeadline: deadline}, srv)
	if err != nil {
		fail(err)
	}
	printResultLSA(sum)
}

func runClientLSA(cfg lightsecagg.Config, addr string, id, value uint64) {
	conn, err := transport.DialTCP(addr, id)
	if err != nil {
		fail(err)
	}
	defer conn.Close()
	sum, err := lightsecagg.RunWireClient(context.Background(), lightsecagg.WireClientConfig{
		Config: cfg, ID: id, Input: lsaInput(cfg.Dim, value), Rand: rand.Reader,
	}, conn)
	if err != nil {
		fail(err)
	}
	if sum != nil {
		fmt.Printf("client %d: round complete\n", id)
	}
}

func runServerSessionsLSA(cfg lightsecagg.Config, listen string, deadline time.Duration,
	rounds, keyRounds int, signer *sig.Signer) {

	srv, err := transport.ListenTCP(listen)
	if err != nil {
		fail(err)
	}
	defer srv.Close()
	fmt.Printf("lightsecagg server on %s, %d rounds\n", srv.Addr(), rounds)
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	eng := engine.New(engine.TransportSource(ctx, srv))
	sess := lightsecagg.NewServerSession()
	for r := 1; r <= rounds; r++ {
		bound := deadline
		if r == 1 {
			bound = 0
		}
		waitForClients(srv, len(cfg.ClientIDs), bound)
		hs, err := core.RunHandshakeServer(ctx, core.HandshakeConfig{
			Round: uint64(r), Protocol: core.ProtocolLightSecAgg, ClientIDs: cfg.ClientIDs,
			KeyRounds: keyRounds, Deadline: deadline, Signer: signer,
		}, sess, eng, srv)
		if err != nil {
			fail(err)
		}
		rcfg := cfg
		rcfg.Round = hs.Round
		sum, err := lightsecagg.RunWireServer(ctx, lightsecagg.WireServerConfig{
			Config: rcfg, StageDeadline: deadline,
			Session: sess, Resume: hs.Resume, Divergent: hs.Divergent, Engine: eng,
		}, srv)
		if err != nil {
			fail(err)
		}
		fmt.Printf("round %d (%s): ", r, describe(hs))
		printResultLSA(sum)
	}
}

func runClientSessionsLSA(cfg lightsecagg.Config, addr string, id, value uint64,
	rounds int, store *sessionstore.Store, serverPub []byte) {

	record := fmt.Sprintf("lsa-client-%d", id)
	sess := loadSessionLSA(store, record)
	ctx := context.Background()
	conn := sessionDial(ctx, addr, id)
	defer func() { conn.Close() }()
	for r := 1; r <= rounds; r++ {
		hs, err := core.RunHandshakeClient(ctx, core.ClientHandshakeConfig{
			ID: id, Protocol: core.ProtocolLightSecAgg, ServerPub: serverPub, Rand: rand.Reader,
		}, sess, conn)
		if err != nil {
			conn = redial(ctx, conn, addr, id, r, err)
			continue
		}
		saveSessionLSA(store, record, sess)
		rcfg := cfg
		rcfg.Round = hs.Round
		if _, err := lightsecagg.RunWireClient(ctx, lightsecagg.WireClientConfig{
			Config: rcfg, ID: id, Input: lsaInput(cfg.Dim, value), Rand: rand.Reader,
			Session: sess, Resume: hs.Resume, Divergent: hs.Divergent,
		}, conn); err != nil {
			conn = redial(ctx, conn, addr, id, r, err)
			continue
		}
		saveSessionLSA(store, record, sess)
		fmt.Printf("client %d round %d (%s): complete\n", id, r, describe(hs))
	}
}

func loadSessionLSA(store *sessionstore.Store, record string) *lightsecagg.Session {
	if sess, ok := loadStoredSession(store, record, lightsecagg.UnmarshalSession); ok {
		return sess
	}
	sess, err := lightsecagg.NewSession(rand.Reader)
	if err != nil {
		fail(err)
	}
	return sess
}

func saveSessionLSA(store *sessionstore.Store, record string, sess *lightsecagg.Session) {
	saveStoredSession(store, record, sess.MarshalBinary)
}

func selfTestLSA(cfg lightsecagg.Config, deadline time.Duration) {
	srv, err := transport.ListenTCP("127.0.0.1:0")
	if err != nil {
		fail(err)
	}
	defer srv.Close()
	var wg sync.WaitGroup
	for i, id := range cfg.ClientIDs {
		id := id
		value := uint64(i + 1)
		wg.Add(1)
		go func() {
			defer wg.Done()
			conn, err := transport.DialTCP(srv.Addr(), id)
			if err != nil {
				fmt.Fprintln(os.Stderr, "client", id, "dial:", err)
				return
			}
			defer conn.Close()
			if _, err := lightsecagg.RunWireClient(context.Background(), lightsecagg.WireClientConfig{
				Config: cfg, ID: id, Input: lsaInput(cfg.Dim, value), Rand: rand.Reader,
			}, conn); err != nil {
				fmt.Fprintln(os.Stderr, "client", id, ":", err)
			}
		}()
	}
	waitForClients(srv, len(cfg.ClientIDs), 0)
	sum, err := lightsecagg.RunWireServer(context.Background(),
		lightsecagg.WireServerConfig{Config: cfg, StageDeadline: deadline}, srv)
	if err != nil {
		fail(err)
	}
	wg.Wait()
	printResultLSA(sum)
}
