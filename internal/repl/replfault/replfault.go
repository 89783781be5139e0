// Package replfault is a deterministic fault-injection harness for the
// replication stream. A Script is an ordered list of steps keyed by the
// global count of messages the primary has attempted to send (frames and
// snapshots both count); when the count reaches a step's boundary the
// scripted fault fires — drop the connection, truncate the wire message at
// an exact byte offset (tearing the stream mid-frame), or delay. Because
// the primary sends one message per frame while an injector is installed,
// a boundary identifies a frame (= cohort) boundary exactly, and the same
// script against the same workload reproduces the same failure byte for
// byte.
//
// Scripts also log every decision (Journal), so a failing property-test
// seed prints the precise schedule that broke replication.
package replfault

import (
	"fmt"
	"sync"

	"repro/internal/repl"
)

// Step is one scripted fault. It fires when the primary's cumulative
// attempted-message count (1-based) equals AtMessage and, if Shard >= 0,
// the message belongs to that shard.
type Step struct {
	AtMessage int // which send attempt triggers the fault (1-based)
	Shard     int // restrict to one shard; -1 matches any
	Action    repl.FaultAction
	Arg       int // Truncate: bytes of the wire message to send; Delay: milliseconds
}

// Script is a deterministic repl.FaultInjector driven by a fixed step
// list. Steps fire at most once; messages matching no step pass.
type Script struct {
	mu      sync.Mutex
	steps   []Step
	count   int
	journal []string
}

// NewScript builds a script from steps (in any order; matching is by
// AtMessage, not list position).
func NewScript(steps ...Step) *Script {
	return &Script{steps: steps}
}

// OnFrame implements repl.FaultInjector.
func (s *Script) OnFrame(shard int, seq uint64, wireLen int) repl.FaultDecision {
	return s.decide("frame", shard, seq, wireLen)
}

// OnSnapshot implements repl.FaultInjector.
func (s *Script) OnSnapshot(shard int, seq uint64, wireLen int) repl.FaultDecision {
	return s.decide("snapshot", shard, seq, wireLen)
}

func (s *Script) decide(kind string, shard int, seq uint64, wireLen int) repl.FaultDecision {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.count++
	for i := range s.steps {
		st := &s.steps[i]
		if st.AtMessage != s.count || (st.Shard >= 0 && st.Shard != shard) {
			continue
		}
		d := repl.FaultDecision{Action: st.Action, Arg: st.Arg}
		// Truncation offsets may be scripted relative to the frame size
		// (negative Arg = wireLen + Arg), so a schedule can say "cut one
		// byte short" without knowing the frame's length up front.
		if d.Action == repl.Truncate && d.Arg < 0 {
			d.Arg = wireLen + d.Arg
			if d.Arg < 0 {
				d.Arg = 0
			}
		}
		s.journal = append(s.journal, fmt.Sprintf("msg %d (%s shard %d seq %d, %dB): action %d arg %d",
			s.count, kind, shard, seq, wireLen, d.Action, d.Arg))
		return d
	}
	return repl.FaultDecision{Action: repl.Pass}
}

// Messages returns how many send attempts the script has observed.
func (s *Script) Messages() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.count
}

// Journal returns a human-readable log of every fault that fired.
func (s *Script) Journal() []string {
	s.mu.Lock()
	defer s.mu.Unlock()
	return append([]string(nil), s.journal...)
}
