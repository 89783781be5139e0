// Replica-mode proxy: a proxy opened over a store.Replica engine (a
// replication follower) serves reads only. The interesting problem is
// metadata freshness — the primary's proxy reseals its schema/onion
// metadata on every transition (DDL, onion adjustment, staleness flag) and
// the sealed blob rides the replicated WAL, so the follower's engine
// surfaces newer blobs over time. The replica proxy tracks the engine's
// MetaGeneration counter and atomically swaps in a freshly unsealed
// metadata snapshot before the first query that runs after a transition;
// between transitions the check is one atomic load on the read path.
//
// Writes (and transactions) are refused with the engine's ReadOnlyError,
// which names the primary's address so a client can redirect. A SELECT
// that would itself require an onion adjustment fails the same way — the
// layer must be peeled on the primary, replicate down, and only then can
// the follower serve that query shape.
package proxy

import (
	"fmt"

	"repro/internal/store"
)

// IsReplica reports whether this proxy fronts a read-only replication
// follower.
func (p *Proxy) IsReplica() bool { return p.replica != nil }

// ReplicaSeq returns the follower's replay position (0 for a non-replica
// proxy). Clients use it to reason about staleness bounds.
func (p *Proxy) ReplicaSeq() uint64 {
	if p.replica == nil {
		return 0
	}
	return p.replica.ReplicaSeq()
}

// PrimaryAddr returns the primary's replication address for a replica
// proxy ("" otherwise).
func (p *Proxy) PrimaryAddr() string {
	if p.replica == nil {
		return ""
	}
	return p.replica.PrimaryAddr()
}

// replicaReadOnly is the refusal for any non-SELECT on a replica proxy.
func (p *Proxy) replicaReadOnly() error {
	return &store.ReadOnlyError{Primary: p.replica.PrimaryAddr()}
}

// maybeReloadReplicaMeta swaps in the newest replicated metadata blob if
// the engine has applied one since the last load. The generation counter
// is read BEFORE the blob: a transition landing between the two reads
// leaves the stored generation stale, so the next query simply reloads
// again — never the reverse (a new generation recorded against an old
// blob).
func (p *Proxy) maybeReloadReplicaMeta() error {
	gen := p.replica.MetaGeneration()
	if gen == p.replicaGen.Load() {
		return nil
	}
	p.mu.Lock()
	defer p.mu.Unlock()
	gen = p.replica.MetaGeneration()
	if gen == p.replicaGen.Load() {
		return nil
	}
	sealed := p.db.Meta()
	if sealed == nil {
		// Generation moved but no blob is visible yet (e.g. a snapshot
		// resync in flight); try again on the next query.
		return nil
	}
	// restoreState assembles into p.tables from scratch; keep the old maps
	// to roll back to if the new blob names tables that have not finished
	// replaying yet.
	oldTables, oldNTab := p.tables, p.nTab
	p.tables = make(map[string]*TableMeta)
	p.nTab = 0
	if err := p.restoreState(sealed); err != nil {
		p.tables, p.nTab = oldTables, oldNTab
		return fmt.Errorf("proxy: reloading replicated metadata: %w", err)
	}
	p.replicaGen.Store(gen)
	return nil
}
