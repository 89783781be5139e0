package repl

import (
	"encoding/binary"
	"errors"
	"fmt"
	"net"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/sqldb"
)

// Follower maintains a connection to a primary and replays one shard's
// stream into a local database. It reconnects with backoff after any
// disconnect, resuming from its own committed sequence — which the
// database recovered from its local WAL if the follower process itself
// restarted — so no external bookkeeping is needed to continue.
//
// Staleness is bounded and monotone: the follower's visible sequence
// (Seq) only ever advances. A reconnect can redeliver frames the follower
// already has, but replay skips them; a snapshot resync installs the
// primary's state at a sequence at or past everything the follower has
// seen, never behind it.
type Follower struct {
	db    *sqldb.DB
	addr  string
	shard int

	closed    chan struct{}
	closeOnce sync.Once
	wg        sync.WaitGroup

	// forceSnap, when set, makes the next handshake request an impossible
	// sequence so the primary answers with a full snapshot. Set after a
	// replay error, which means local state diverged.
	forceSnap uint32

	// connects counts established streams (atomic); tests use it to wait
	// for a reconnect.
	connects atomic.Uint64

	mu      sync.Mutex
	lastErr error
}

// StartFollower begins replicating shard from the primary at addr into db
// (which must be a durable database so replicated frames persist locally).
// The returned Follower runs until Close.
func StartFollower(db *sqldb.DB, addr string, shard int) *Follower {
	f := &Follower{db: db, addr: addr, shard: shard, closed: make(chan struct{})}
	f.wg.Add(1)
	go f.run()
	return f
}

// Probe asks the primary at addr how many shards it serves and its
// topology flags (FlagSharded or 0).
func Probe(addr string) (shards int, flags uint32, err error) {
	conn, err := net.DialTimeout("tcp", addr, 5*time.Second)
	if err != nil {
		return 0, 0, fmt.Errorf("repl: probe %s: %w", addr, err)
	}
	defer conn.Close()
	conn.SetDeadline(time.Now().Add(5 * time.Second)) //nolint:errcheck // best-effort probe bound
	if err := writeHandshake(conn, probeShard, 0); err != nil {
		return 0, 0, err
	}
	return readReply(conn)
}

// Seq returns the follower's replay position: the sequence number of the
// last frame committed locally. Monotone non-decreasing for the life of
// the local database, across any number of reconnects.
func (f *Follower) Seq() uint64 { return f.db.Seq() }

// Connects returns how many times a stream has been established.
func (f *Follower) Connects() uint64 { return f.connects.Load() }

// LastErr returns the most recent stream error (nil when none).
func (f *Follower) LastErr() error {
	f.mu.Lock()
	defer f.mu.Unlock()
	return f.lastErr
}

// WaitCaughtUp blocks until the follower's replay position reaches seq or
// the timeout expires.
func (f *Follower) WaitCaughtUp(seq uint64, timeout time.Duration) error {
	deadline := time.Now().Add(timeout)
	for {
		if f.db.Seq() >= seq {
			return nil
		}
		if time.Now().After(deadline) {
			return fmt.Errorf("repl: follower at seq %d did not reach %d within %v (last error: %v)",
				f.db.Seq(), seq, timeout, f.LastErr())
		}
		select {
		case <-f.closed:
			return fmt.Errorf("repl: follower closed at seq %d (wanted %d)", f.db.Seq(), seq)
		case <-time.After(2 * time.Millisecond):
		}
	}
}

// Close stops the replication loop and waits for it to exit. The local
// database is left open (the caller owns it).
func (f *Follower) Close() {
	f.closeOnce.Do(func() { close(f.closed) })
	f.wg.Wait()
}

func (f *Follower) run() {
	defer f.wg.Done()
	backoff := 5 * time.Millisecond
	for {
		select {
		case <-f.closed:
			return
		default:
		}
		before := f.connects.Load()
		err := f.stream()
		select {
		case <-f.closed:
			return
		default:
		}
		if err != nil {
			f.mu.Lock()
			f.lastErr = err
			f.mu.Unlock()
		}
		if f.connects.Load() > before {
			backoff = 5 * time.Millisecond // the stream was established; start fresh
		}
		time.Sleep(backoff)
		if backoff < 200*time.Millisecond {
			backoff *= 2
		}
	}
}

// stream runs one connection: handshake from the local commit position,
// then replay messages until the stream breaks. A partial message at the
// tear is discarded wholesale — replay only ever sees complete frames.
func (f *Follower) stream() error {
	conn, err := net.DialTimeout("tcp", f.addr, 5*time.Second)
	if err != nil {
		return err
	}
	defer conn.Close()
	// Unblock reads when Close is called.
	done := make(chan struct{})
	defer close(done)
	go func() {
		select {
		case <-f.closed:
			conn.Close() //cryptdb:vet-ok durabilityerr: unblocking a reader on shutdown; the socket carries no durable state
		case <-done:
		}
	}()

	fromSeq := f.db.Seq()
	if atomic.SwapUint32(&f.forceSnap, 0) == 1 {
		// Request an impossible position; the primary answers with a full
		// snapshot, replacing our diverged state.
		fromSeq = ^uint64(0)
	}
	if err := writeHandshake(conn, uint32(f.shard), fromSeq); err != nil {
		return err
	}
	shards, _, err := readReply(conn)
	if err != nil {
		return err
	}
	if f.shard >= shards {
		return fmt.Errorf("repl: primary has %d shards, wanted shard %d", shards, f.shard)
	}
	f.connects.Add(1)

	for {
		typ, payload, err := readMsg(conn)
		if err != nil {
			return err // disconnect (or tear): reconnect and resume
		}
		if err := f.apply(typ, payload); err != nil {
			return err
		}
		if err := writeAck(conn, f.db.Seq()); err != nil {
			return err
		}
	}
}

// apply replays one whole stream message into the local database. An error
// ends the stream; one that means local state diverged also makes the next
// handshake ask for a full snapshot.
func (f *Follower) apply(typ byte, payload []byte) error {
	switch typ {
	case msgSnap:
		if len(payload) < 8 {
			return fmt.Errorf("repl: short snapshot message")
		}
		seq := binary.BigEndian.Uint64(payload)
		// A durability error means the state installed and only local
		// disk persistence failed.
		if err := f.db.ResetFromSnapshot(payload[8:], seq); err != nil && !isDurability(err) {
			atomic.StoreUint32(&f.forceSnap, 1)
			return fmt.Errorf("repl: snapshot resync: %w", err)
		}
	case msgFrames:
		frames, err := sqldb.SplitFrames(payload)
		if err != nil {
			return fmt.Errorf("repl: frame blob: %w", err)
		}
		for _, frame := range frames {
			if err := f.db.ApplyReplicatedFrame(frame); err != nil {
				if isDurability(err) {
					continue // applied in memory; local disk lagged
				}
				// Replay failure means divergence: full resync next.
				atomic.StoreUint32(&f.forceSnap, 1)
				return fmt.Errorf("repl: replay: %w", err)
			}
		}
	case msgErr:
		return fmt.Errorf("repl: primary: %s", string(payload))
	default:
		return fmt.Errorf("repl: unknown message type %d", typ)
	}
	return nil
}

func isDurability(err error) bool {
	var de *sqldb.DurabilityError
	return errors.As(err, &de)
}
