// Session persistence and the re-key handshake: wire-deployment session
// continuity end to end.
//
// The session layer makes a resumed round free of X25519 work. In process
// a key generation never outlives its round (core.SessionPool only shares
// one across a round's chunks), so resuming one across rounds is decided
// in one place: the re-key handshake, which needs no view of the drop
// schedule and survives client restarts. This example runs the wire stack
// the way a deployment would:
//
//  1. Round 1 over the in-memory transport, preceded by the signed re-key
//     handshake (hello → offer → ack → commit). No shared state exists
//     yet, so the handshake re-keys and the round pays the full advertise
//     stage and n·k key agreements.
//  2. Every client serializes its session (key pairs, cached pairwise
//     secrets, ratchet position — never expanded masks) into an
//     AEAD-encrypted store, and the process "restarts": all in-memory
//     session state is discarded.
//  3. Round 2 restores the sessions from the store. The handshake verifies
//     that every party still holds the same key generation (roster state
//     hashes), commits resume, and the round completes with zero key
//     generations and zero agreements — verified against the process-wide
//     X25519 counters.
//  4. Round 3 injects a mid-round dropout. The server reconstructs the
//     dropper's mask key, which taints the dropper's edges on both sides,
//     and the round-4 handshake downgrades to a *partial* re-key: the
//     commit names the dropper as divergent, only its pairwise edges are
//     re-established, and the other clients keep their cached secrets —
//     O(churned edges) of key agreement instead of a full n·k reset.
//
// Run with: go run ./examples/session_persistence
package main

import (
	"context"
	"crypto/rand"
	"fmt"
	"log"
	"os"
	"sync"
	"time"

	"repro/internal/core"
	"repro/internal/dh"
	"repro/internal/engine"
	"repro/internal/ring"
	"repro/internal/secagg"
	"repro/internal/sessionstore"
	"repro/internal/sig"
	"repro/internal/transport"
)

const (
	numClients = 5
	threshold  = 3
	dim        = 64
	bits       = 16
)

func main() {
	ids := make([]uint64, numClients)
	for i := range ids {
		ids[i] = uint64(i + 1)
	}

	// The deployment's fixed pieces: the transport, ONE server engine
	// spanning every handshake and round on the connection, the server's
	// handshake signing key (clients pin the verification key), and the
	// clients' at-rest session store.
	net := transport.NewMemoryNetwork(256)
	srv := net.Server()
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	eng := engine.New(engine.TransportSource(ctx, srv))
	signer, err := sig.NewSigner(rand.Reader)
	if err != nil {
		log.Fatal(err)
	}
	storeDir, err := os.MkdirTemp("", "dordis-sessions-*")
	if err != nil {
		log.Fatal(err)
	}
	defer os.RemoveAll(storeDir)
	store, err := sessionstore.Open(storeDir, sessionstore.DeriveKey([]byte("example store key")))
	if err != nil {
		log.Fatal(err)
	}

	serverSess := secagg.NewServerSession()
	clientSess := make(map[uint64]*secagg.Session, numClients)
	conns := make(map[uint64]transport.ClientConn, numClients)
	for _, id := range ids {
		if clientSess[id], err = secagg.NewSession(rand.Reader); err != nil {
			log.Fatal(err)
		}
		if conns[id], err = net.Connect(id); err != nil {
			log.Fatal(err)
		}
	}

	runRound := func(round uint64, dropper uint64) core.Handshake {
		var wg sync.WaitGroup
		for _, id := range ids {
			id := id
			wg.Add(1)
			go func() {
				defer wg.Done()
				sess := clientSess[id]
				hs, err := core.RunHandshakeClient(ctx, core.ClientHandshakeConfig{
					ID: id, Protocol: core.ProtocolSecAgg, ServerPub: signer.Public(), Rand: rand.Reader,
				}, sess, conns[id])
				if err != nil {
					log.Fatalf("client %d handshake: %v", id, err)
				}
				drop := core.NoDrop
				if id == dropper {
					drop = secagg.StageMaskedInput
				}
				input := ring.NewVector(bits, dim)
				for i := range input.Data {
					input.Data[i] = id
				}
				cfg := secagg.Config{
					Round: hs.Round, ClientIDs: ids, Threshold: threshold,
					Bits: bits, Dim: dim, KeyRatchet: hs.Ratchet,
				}
				_, err = core.RunWireClient(ctx, core.WireClientConfig{
					SecAgg: cfg, ID: id, Input: input, DropBefore: drop,
					Rand: rand.Reader, Session: sess, Resume: hs.Resume, Divergent: hs.Divergent,
				}, conns[id])
				if err != nil && id != dropper {
					log.Fatalf("client %d round: %v", id, err)
				}
			}()
		}
		hs, err := core.RunHandshakeServer(ctx, core.HandshakeConfig{
			Round: round, Protocol: core.ProtocolSecAgg, ClientIDs: ids,
			KeyRounds: 16, Deadline: 2 * time.Second, Signer: signer,
		}, serverSess, eng, srv)
		if err != nil {
			log.Fatal(err)
		}
		cfg := secagg.Config{
			Round: hs.Round, ClientIDs: ids, Threshold: threshold,
			Bits: bits, Dim: dim, KeyRatchet: hs.Ratchet,
		}
		res, err := core.RunWireServer(ctx, core.WireServerConfig{
			SecAgg: cfg, StageDeadline: 500 * time.Millisecond,
			Session: serverSess, Resume: hs.Resume, Divergent: hs.Divergent, Engine: eng,
		}, srv)
		if err != nil {
			log.Fatal(err)
		}
		wg.Wait()
		mode := "re-keyed"
		switch {
		case hs.Partial():
			mode = fmt.Sprintf("partially re-keyed members %v at ratchet %d", hs.Divergent, hs.Ratchet)
		case hs.Resume:
			mode = fmt.Sprintf("resumed at ratchet %d", hs.Ratchet)
		}
		fmt.Printf("round %d (%s): survivors=%v dropped=%v sum[0]=%d\n",
			round, mode, res.Survivors, res.Dropped, res.Sum[0])
		return hs
	}

	fmt.Println("== round 1: no shared state, the handshake re-keys ==")
	gen0, agree0 := dh.GenerateCount(), dh.AgreeCount()
	runRound(1, 0)
	fmt.Printf("   key work: %d X25519 generations, %d agreements\n\n",
		dh.GenerateCount()-gen0, dh.AgreeCount()-agree0)

	fmt.Println("== clients persist sessions (AEAD store) and restart ==")
	for _, id := range ids {
		blob, err := clientSess[id].MarshalBinary()
		if err != nil {
			log.Fatal(err)
		}
		if err := store.Save(fmt.Sprintf("client-%d", id), blob); err != nil {
			log.Fatal(err)
		}
		clientSess[id] = nil // the "restart": in-memory state is gone
	}
	for _, id := range ids {
		blob, err := store.Load(fmt.Sprintf("client-%d", id))
		if err != nil {
			log.Fatal(err)
		}
		if clientSess[id], err = secagg.UnmarshalSession(blob); err != nil {
			log.Fatal(err)
		}
	}
	fmt.Printf("   restored %d sessions from %s\n\n", numClients, storeDir)

	fmt.Println("== round 2: restored sessions resume with zero key work ==")
	gen0, agree0 = dh.GenerateCount(), dh.AgreeCount()
	hs := runRound(2, 0)
	if !hs.Resume {
		log.Fatal("round 2 unexpectedly re-keyed")
	}
	g, a := dh.GenerateCount()-gen0, dh.AgreeCount()-agree0
	fmt.Printf("   key work: %d X25519 generations, %d agreements\n", g, a)
	if g != 0 || a != 0 {
		log.Fatal("resumed round performed key work")
	}
	fmt.Println()

	fmt.Println("== round 3: client 5 drops mid-round; its key is reconstructed ==")
	runRound(3, 5)
	fmt.Printf("   server taint: %v, client-5 taint: %v\n\n",
		len(serverSess.TaintedMembers()) > 0, clientSess[5].Tainted())

	fmt.Println("== round 4: the taint forces a partial re-key of the dropper's edges ==")
	if conns[5], err = net.Connect(5); err != nil { // the bounced client re-dials
		log.Fatal(err)
	}
	gen0, agree0 = dh.GenerateCount(), dh.AgreeCount()
	hs = runRound(4, 0)
	if !hs.Resume || !hs.Partial() {
		log.Fatal("round 4 did not partially resume over the tainted edges")
	}
	fmt.Printf("   key work: %d X25519 generations, %d agreements — O(churned edges), not n·k\n",
		dh.GenerateCount()-gen0, dh.AgreeCount()-agree0)
	fmt.Println("\nThe dropout cost one client's edges — never a fleet-wide re-key or a repeated mask stream.")
}
