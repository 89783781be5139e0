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
	"repro/internal/store"
)

// FaultAction is a fault injector's verdict on one outbound message.
type FaultAction int

const (
	// Pass sends the message normally.
	Pass FaultAction = iota
	// DropConn closes the connection without sending the message.
	DropConn
	// Truncate writes only Arg bytes of the wire message, then closes the
	// connection — a torn stream that can cut mid-frame.
	Truncate
	// Delay sleeps Arg milliseconds before sending normally.
	Delay
)

// FaultDecision pairs an action with its argument (byte count for
// Truncate, milliseconds for Delay).
type FaultDecision struct {
	Action FaultAction
	Arg    int
}

// FaultInjector lets a test intercept the primary's stream at every frame
// (and snapshot) boundary. wireLen is the full encoded message length, so
// a Truncate decision can target any byte inside the frame. Implemented by
// replfault.Script; nil means no interception.
type FaultInjector interface {
	OnFrame(shard int, seq uint64, wireLen int) FaultDecision
	OnSnapshot(shard int, seq uint64, wireLen int) FaultDecision
}

// Primary accepts follower connections and ships each shard's WAL to them.
// One Primary serves every shard of an engine: followers request a shard
// index in their handshake. Purely additive — the primary's own commit
// path never waits for a follower (asynchronous replication), and a slow
// follower is disconnected by tap backpressure rather than ever stalling
// commits.
type Primary struct {
	dbs   []*sqldb.DB
	flags uint32
	ln    net.Listener

	mu        sync.Mutex
	followers map[*followerConn]struct{}
	inj       FaultInjector
	closed    bool

	wg sync.WaitGroup
}

type followerConn struct {
	conn   net.Conn
	shard  int
	remote string
	sent   atomic.Uint64
	acked  atomic.Uint64
}

// NewPrimary starts serving the given per-shard databases on addr
// (host:port; port 0 picks a free one). flags describe the engine's
// topology to followers (FlagSharded or 0). Close stops the listener and
// disconnects every follower.
func NewPrimary(dbs []*sqldb.DB, addr string, flags uint32) (*Primary, error) {
	if len(dbs) == 0 {
		return nil, fmt.Errorf("repl: no databases to replicate")
	}
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return nil, fmt.Errorf("repl: listen %s: %w", addr, err)
	}
	p := &Primary{dbs: dbs, flags: flags, ln: ln, followers: make(map[*followerConn]struct{})}
	p.wg.Add(1)
	go p.acceptLoop()
	return p, nil
}

// Addr returns the listening address (useful with port 0).
func (p *Primary) Addr() string { return p.ln.Addr().String() }

// ShardSeq returns the current commit sequence of one shard — the target
// a fully caught-up follower of that shard must reach.
func (p *Primary) ShardSeq(shard int) uint64 { return p.dbs[shard].Seq() }

// SetFaultInjector installs (or clears, with nil) the stream interceptor.
// Takes effect for messages sent after the call.
func (p *Primary) SetFaultInjector(inj FaultInjector) {
	p.mu.Lock()
	p.inj = inj
	p.mu.Unlock()
}

func (p *Primary) injector() FaultInjector {
	p.mu.Lock()
	defer p.mu.Unlock()
	return p.inj
}

// FollowerStats reports every connected follower's progress.
func (p *Primary) FollowerStats() []store.FollowerStat {
	p.mu.Lock()
	defer p.mu.Unlock()
	stats := make([]store.FollowerStat, 0, len(p.followers))
	for fc := range p.followers {
		stats = append(stats, store.FollowerStat{
			Remote:     fc.remote,
			Shard:      fc.shard,
			SentSeq:    fc.sent.Load(),
			AckedSeq:   fc.acked.Load(),
			PrimarySeq: p.dbs[fc.shard].Seq(),
		})
	}
	return stats
}

// Close stops accepting, disconnects every follower and waits for the
// serving goroutines to finish.
func (p *Primary) Close() error {
	p.mu.Lock()
	if p.closed {
		p.mu.Unlock()
		return nil
	}
	p.closed = true
	conns := make([]net.Conn, 0, len(p.followers))
	for fc := range p.followers {
		conns = append(conns, fc.conn)
	}
	p.mu.Unlock()
	err := p.ln.Close()
	for _, c := range conns {
		c.Close() //cryptdb:vet-ok durabilityerr: follower sockets; durable state lives in each side's own WAL
	}
	p.wg.Wait()
	return err
}

func (p *Primary) acceptLoop() {
	defer p.wg.Done()
	for {
		conn, err := p.ln.Accept()
		if err != nil {
			return // listener closed
		}
		p.wg.Add(1)
		go func() {
			defer p.wg.Done()
			p.serveConn(conn)
		}()
	}
}

// serveConn handles one follower for its whole life: handshake, catch-up
// (log tail or snapshot + tail), then live streaming until either side
// drops.
func (p *Primary) serveConn(conn net.Conn) {
	defer conn.Close()
	conn.SetReadDeadline(time.Now().Add(10 * time.Second)) //nolint:errcheck // best-effort handshake bound
	shard32, fromSeq, err := readHandshake(conn)
	if err != nil {
		return
	}
	conn.SetReadDeadline(time.Time{}) //nolint:errcheck // clear the handshake bound
	if shard32 == probeShard {
		writeReply(conn, len(p.dbs), p.flags) //nolint:errcheck // probe reply; peer handles short read
		return
	}
	shard := int(shard32)
	if shard < 0 || shard >= len(p.dbs) {
		conn.Write(encodeMsg(msgErr, []byte(fmt.Sprintf("no shard %d (have %d)", shard, len(p.dbs))))) //cryptdb:vet-ok durabilityerr: best-effort terminal notice; the follower treats any tear as a disconnect
		return
	}
	if err := writeReply(conn, len(p.dbs), p.flags); err != nil {
		return
	}

	db := p.dbs[shard]
	tap, err := db.TapWAL(fromSeq)
	var snapMsg []byte
	var snapSeq uint64
	if errors.Is(err, sqldb.ErrSeqTruncated) {
		// The follower's position is gone from the log (or ahead of us):
		// seed it with a full snapshot, then stream the tail.
		ops, seq, stap, serr := db.TapWithSnapshot()
		if serr != nil {
			conn.Write(encodeMsg(msgErr, []byte(serr.Error()))) //cryptdb:vet-ok durabilityerr: best-effort terminal notice; the follower treats any tear as a disconnect
			return
		}
		payload := make([]byte, 8+len(ops))
		binary.BigEndian.PutUint64(payload, seq)
		copy(payload[8:], ops)
		snapMsg, snapSeq = payload, seq
		tap = stap
	} else if err != nil {
		conn.Write(encodeMsg(msgErr, []byte(err.Error()))) //cryptdb:vet-ok durabilityerr: best-effort terminal notice; the follower treats any tear as a disconnect
		return
	}
	defer tap.Close()

	fc := &followerConn{conn: conn, shard: shard, remote: conn.RemoteAddr().String()}
	p.mu.Lock()
	if p.closed {
		p.mu.Unlock()
		return
	}
	p.followers[fc] = struct{}{}
	p.mu.Unlock()
	defer func() {
		p.mu.Lock()
		delete(p.followers, fc)
		p.mu.Unlock()
	}()

	// Ack reader: tracks the follower's replay position and doubles as the
	// disconnect detector — its read error closes the tap, which wakes the
	// stream loop out of Frames() so serveConn can exit.
	ackDone := make(chan struct{})
	go func() {
		defer close(ackDone)
		for {
			seq, err := readAck(conn)
			if err != nil {
				tap.Close()
				return
			}
			fc.acked.Store(seq)
		}
	}()

	if snapMsg != nil {
		if !p.sendMsg(fc, msgSnap, snapMsg, snapSeq) {
			<-ackDone
			return
		}
	}
	for {
		blob, err := tap.Frames()
		if err != nil {
			if errors.Is(err, sqldb.ErrTapLagged) {
				conn.Write(encodeMsg(msgErr, []byte(err.Error()))) //cryptdb:vet-ok durabilityerr: best-effort lag notice before disconnecting
			}
			conn.Close() //cryptdb:vet-ok durabilityerr: follower socket; replication resumes from the follower's own WAL position
			<-ackDone
			return
		}
		if !p.sendFrames(fc, blob) {
			conn.Close() //cryptdb:vet-ok durabilityerr: follower socket; replication resumes from the follower's own WAL position
			<-ackDone
			return
		}
	}
}

// sendFrames ships a blob of tap frames, batched into one message when no
// injector is installed and frame-by-frame (one message per frame, so the
// injector sees every frame boundary) when one is. Reports whether the
// connection is still usable.
func (p *Primary) sendFrames(fc *followerConn, blob []byte) bool {
	inj := p.injector()
	if inj == nil {
		last, err := lastFrameSeq(blob)
		if err != nil {
			return false
		}
		if _, err := fc.conn.Write(encodeMsg(msgFrames, blob)); err != nil {
			return false
		}
		fc.sent.Store(last)
		return true
	}
	frames, err := sqldb.SplitFrames(blob)
	if err != nil {
		return false
	}
	for _, frame := range frames {
		seq, err := sqldb.FrameSeq(frame)
		if err != nil {
			return false
		}
		if !p.sendMsg(fc, msgFrames, frame, seq) {
			return false
		}
	}
	return true
}

// sendMsg writes one message, consulting the fault injector. Reports
// whether the connection survived.
func (p *Primary) sendMsg(fc *followerConn, typ byte, payload []byte, seq uint64) bool {
	wire := encodeMsg(typ, payload)
	if inj := p.injector(); inj != nil {
		var d FaultDecision
		if typ == msgSnap {
			d = inj.OnSnapshot(fc.shard, seq, len(wire))
		} else {
			d = inj.OnFrame(fc.shard, seq, len(wire))
		}
		switch d.Action {
		case DropConn:
			fc.conn.Close() //cryptdb:vet-ok durabilityerr: injected fault; tearing the socket IS the test
			return false
		case Truncate:
			cut := d.Arg
			if cut > len(wire) {
				cut = len(wire)
			}
			fc.conn.Write(wire[:cut]) //cryptdb:vet-ok durabilityerr: injected tear; the partial write IS the fault under test
			fc.conn.Close()           //cryptdb:vet-ok durabilityerr: injected fault; tearing the socket IS the test
			return false
		case Delay:
			time.Sleep(time.Duration(d.Arg) * time.Millisecond)
		}
	}
	if _, err := fc.conn.Write(wire); err != nil {
		return false
	}
	fc.sent.Store(seq)
	return true
}

// lastFrameSeq returns the sequence number of the final frame in a blob.
func lastFrameSeq(blob []byte) (uint64, error) {
	frames, err := sqldb.SplitFrames(blob)
	if err != nil || len(frames) == 0 {
		return 0, fmt.Errorf("repl: empty or malformed frame blob: %v", err)
	}
	return sqldb.FrameSeq(frames[len(frames)-1])
}
