package serve

import (
	"context"
	"sync"
	"time"

	"wayplace/internal/obs"
)

// TenancyOptions configures per-tenant admission: concurrency quotas,
// bounded per-tenant backlogs and the weighted-fair (deficit
// round-robin) dispatch order. The zero value reproduces the
// pre-tenancy server exactly — every tenant may fill the whole queue
// and a full pool answers 429 immediately — so tenant isolation is
// strictly opt-in.
type TenancyOptions struct {
	// Slots caps how many queue slots one tenant may hold at once
	// (sync and async combined). A tenant at its cap gets 429
	// over_quota — a per-tenant condition — while other tenants keep
	// admitting. 0 means QueueDepth: no per-tenant cap.
	Slots int
	// AsyncSlots caps the async share of one tenant's slots, mirroring
	// the server-wide async reservation at tenant granularity. 0 means
	// Slots; clamped to [1, Slots].
	AsyncSlots int
	// Backlog bounds how many of one tenant's requests may park
	// waiting for a slot (only meaningful with AdmitWait > 0); past it
	// the tenant gets queue_full. 0 means Slots.
	Backlog int
	// AdmitWait is how long an admission may park in its tenant
	// sub-queue for the weighted-fair dispatcher before giving up with
	// queue_full. 0 disables parking: a full pool answers 429
	// immediately, exactly the pre-tenancy behaviour.
	AdmitWait time.Duration
	// IdleTTL is how long a tenant's accounting state (deficit,
	// weight, last-seen) survives with no held slots and no waiters
	// before it is reclaimed, so a long-lived daemon does not leak one
	// entry per tenant ever seen. 0 means 5 minutes; negative disables
	// reclamation.
	IdleTTL time.Duration
	// Quantum is the deficit-round-robin refill in cells per unit of
	// weight per rotation: a tenant with weight w accumulates w*Quantum
	// cells of credit each time the dispatcher visits it, and admitting
	// a batch spends credit equal to its cell count — so over time
	// tenants' admitted cell throughput converges to their weight
	// ratio. 0 means 8.
	Quantum int
	// Weights assigns per-tenant scheduling weights; tenants absent
	// from the map (and every tenant when nil) weigh 1. Weights shape
	// the dequeue share, not the quota.
	Weights map[string]int
	// RetryAfter is the backoff hint sent with over_quota answers —
	// per-tenant pressure typically clears faster than a full global
	// queue, so it may be shorter than Options.RetryAfter. 0 inherits
	// Options.RetryAfter.
	RetryAfter time.Duration
}

// admitVerdict is the outcome of one admission attempt.
type admitVerdict int

const (
	// admitOK: a slot was granted; the caller must release it.
	admitOK admitVerdict = iota
	// admitOverQuota: this tenant is at its own quota while the pool
	// may still have room — answer 429 over_quota.
	admitOverQuota
	// admitQueueFull: a global condition (pool exhausted, async pool
	// exhausted, backlog full, draining, or AdmitWait expired) —
	// answer 429 queue_full.
	admitQueueFull
)

// waiter is one parked admission awaiting weighted-fair dispatch.
type waiter struct {
	cost  int // DRR cost: the batch's cell count
	async bool
	// granted is written under sched.mu before ready is closed; the
	// channel close publishes it to the parked goroutine.
	granted bool
	ready   chan struct{}
}

// tenantState is one tenant's accounting: held slots, parked waiters
// and the DRR deficit. All fields are guarded by sched.mu.
type tenantState struct {
	name       string
	weight     int
	deficit    int // DRR credit, in cells
	held       int // queue slots currently held
	asyncHeld  int // the async subset of held
	waiting    []*waiter
	inRotation bool
	lastSeen   time.Time
}

// sched is the tenant-aware admission scheduler: a single slot pool
// with per-tenant quotas in front of it and a deficit-round-robin
// dispatcher over per-tenant sub-queues behind it. With the zero
// TenancyOptions it degenerates to the old bounded queue: one global
// capacity check, immediate 429 when full.
type sched struct {
	capacity int // total queue slots (Options.QueueDepth)
	asyncCap int // global async reservation (Options.AsyncSlots)

	slots      int // per-tenant slot quota (normalized)
	asyncSlots int // per-tenant async quota (normalized)
	backlog    int // per-tenant parked-waiter bound (normalized)
	admitWait  time.Duration
	idleTTL    time.Duration
	quantum    int
	weights    map[string]int
	gauge      *obs.Gauge // live tenant count (may be nil)

	mu           sync.Mutex
	draining     bool
	running      int // slots currently granted
	asyncHeld    int // the async subset of running
	waitingTotal int
	tenants      map[string]*tenantState
	rotation     []*tenantState // tenants with parked waiters, in DRR order
	cursor       int
	lastSweep    time.Time
}

// newSched normalizes the tenancy options against the server's queue
// geometry and returns an empty scheduler.
func newSched(capacity, asyncCap int, cfg TenancyOptions, gauge *obs.Gauge) *sched {
	s := &sched{
		capacity:   capacity,
		asyncCap:   asyncCap,
		slots:      cfg.Slots,
		asyncSlots: cfg.AsyncSlots,
		backlog:    cfg.Backlog,
		admitWait:  cfg.AdmitWait,
		idleTTL:    cfg.IdleTTL,
		quantum:    cfg.Quantum,
		weights:    cfg.Weights,
		gauge:      gauge,
		tenants:    make(map[string]*tenantState),
	}
	if s.slots <= 0 || s.slots > capacity {
		s.slots = capacity
	}
	if s.asyncSlots <= 0 || s.asyncSlots > s.slots {
		s.asyncSlots = s.slots
	}
	if s.backlog <= 0 {
		s.backlog = s.slots
	}
	if s.idleTTL == 0 {
		s.idleTTL = 5 * time.Minute
	}
	if s.quantum <= 0 {
		s.quantum = 8
	}
	return s
}

// admit claims one slot for the tenant, parking up to admitWait when
// the pool is contended. cost is the batch's cell count (the DRR
// currency). The verdict distinguishes the per-tenant condition
// (over_quota) from global ones (queue_full) so the server can answer
// with the right error code and backoff hint.
func (s *sched) admit(ctx context.Context, tenant string, async bool, cost int) admitVerdict {
	if cost < 1 {
		cost = 1
	}
	s.mu.Lock()
	if s.draining {
		s.mu.Unlock()
		return admitQueueFull
	}
	now := time.Now()
	t := s.tenantLocked(tenant, now)
	t.lastSeen = now
	// Quota checks come first: a tenant at its own cap is over_quota
	// even when the pool has room — that is the isolation contract.
	// A quota spanning the whole pool is no quota (the slots < capacity
	// guards): with tenancy unconfigured, a lone tenant saturating the
	// pool must keep seeing the pre-tenancy global answer, queue_full.
	if t.held >= s.slots && s.slots < s.capacity {
		s.mu.Unlock()
		return admitOverQuota
	}
	if async && t.asyncHeld >= s.asyncSlots && s.asyncSlots < s.asyncCap {
		s.mu.Unlock()
		return admitOverQuota
	}
	if async && s.asyncHeld >= s.asyncCap {
		s.mu.Unlock()
		return admitQueueFull
	}
	// Fast path: free slot and nobody parked ahead of us.
	if s.running < s.capacity && s.waitingTotal == 0 {
		s.grantLocked(t, async)
		s.mu.Unlock()
		return admitOK
	}
	if s.admitWait <= 0 {
		s.mu.Unlock()
		return admitQueueFull
	}
	if len(t.waiting) >= s.backlog {
		s.mu.Unlock()
		return admitQueueFull
	}
	w := &waiter{cost: cost, async: async, ready: make(chan struct{})}
	t.waiting = append(t.waiting, w)
	s.waitingTotal++
	if !t.inRotation {
		t.inRotation = true
		s.rotation = append(s.rotation, t)
	}
	// Dispatch before sleeping: the pool may have room that only a
	// quota-blocked head was failing to take.
	s.dispatchLocked()
	if w.granted {
		s.mu.Unlock()
		return admitOK
	}
	s.mu.Unlock()

	timer := time.NewTimer(s.admitWait)
	defer timer.Stop()
	select {
	case <-w.ready:
		if w.granted {
			return admitOK
		}
		return admitQueueFull // woken by drain
	case <-timer.C:
	case <-ctx.Done():
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	if w.granted {
		// Lost the race against a concurrent grant: the slot is ours
		// after all, and the caller will release it normally.
		return admitOK
	}
	s.removeWaiterLocked(t, w)
	return admitQueueFull
}

// release returns one slot and runs the dispatcher, so parked waiters
// are granted in weighted-fair order the moment capacity frees.
func (s *sched) release(tenant string, async bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if t, ok := s.tenants[tenant]; ok {
		t.held--
		if async {
			t.asyncHeld--
		}
		t.lastSeen = time.Now()
	}
	s.running--
	if async {
		s.asyncHeld--
	}
	s.dispatchLocked()
}

func (s *sched) grantLocked(t *tenantState, async bool) {
	t.held++
	if async {
		t.asyncHeld++
		s.asyncHeld++
	}
	s.running++
}

// dispatchLocked is the deficit-round-robin dequeue: visit tenants
// with parked waiters in rotation order, topping each one's deficit
// up by weight*quantum when its head is short of credit, and grant
// while credit, quota and pool capacity allow. Invariants: (1) a
// tenant's waiters are granted FIFO; (2) across rotations, granted
// cell volume converges to the tenants' weight ratio; (3) a
// quota-blocked tenant never stalls the rotation — its waiters simply
// stay parked while others are served.
func (s *sched) dispatchLocked() {
	for s.running < s.capacity && len(s.rotation) > 0 {
		progress := false    // granted someone this cycle
		costBlocked := false // some head needs only more credit
		for visits := len(s.rotation); visits > 0 && s.running < s.capacity && len(s.rotation) > 0; visits-- {
			if s.cursor >= len(s.rotation) {
				s.cursor = 0
			}
			t := s.rotation[s.cursor]
			if t.deficit < t.waiting[0].cost {
				t.deficit += t.weight * s.quantum
			}
			for len(t.waiting) > 0 && s.running < s.capacity {
				w := t.waiting[0]
				if t.held >= s.slots || (w.async && (t.asyncHeld >= s.asyncSlots || s.asyncHeld >= s.asyncCap)) {
					break // quota-blocked: credit cannot help
				}
				if w.cost > t.deficit {
					costBlocked = true
					break
				}
				t.waiting = t.waiting[1:]
				s.waitingTotal--
				t.deficit -= w.cost
				s.grantLocked(t, w.async)
				w.granted = true
				close(w.ready)
				progress = true
			}
			if len(t.waiting) == 0 {
				s.leaveRotationLocked(t)
			} else {
				s.cursor++
			}
		}
		if !progress && !costBlocked {
			// Every parked head is quota-blocked; a future release
			// re-runs the dispatcher.
			return
		}
	}
}

// leaveRotationLocked drops a tenant with an empty sub-queue from the
// DRR rotation; its deficit resets so an idle tenant cannot bank
// credit against the future.
func (s *sched) leaveRotationLocked(t *tenantState) {
	for i, cand := range s.rotation {
		if cand == t {
			s.rotation = append(s.rotation[:i], s.rotation[i+1:]...)
			if s.cursor > i {
				s.cursor--
			}
			break
		}
	}
	t.inRotation = false
	t.deficit = 0
}

// removeWaiterLocked unparks one timed-out (or cancelled) waiter.
func (s *sched) removeWaiterLocked(t *tenantState, w *waiter) {
	for i, cand := range t.waiting {
		if cand == w {
			t.waiting = append(t.waiting[:i], t.waiting[i+1:]...)
			s.waitingTotal--
			break
		}
	}
	if len(t.waiting) == 0 && t.inRotation {
		s.leaveRotationLocked(t)
	}
}

// tenantLocked gets or creates one tenant's accounting state. The
// creation path — never the hot path — opportunistically sweeps idle
// tenants, so the map is bounded by the set of tenants active within
// one IdleTTL window rather than every tenant ever seen.
func (s *sched) tenantLocked(name string, now time.Time) *tenantState {
	t, ok := s.tenants[name]
	if !ok {
		s.maybeSweepLocked(now)
		weight := 1
		if w, ok := s.weights[name]; ok && w > 0 {
			weight = w
		}
		t = &tenantState{name: name, weight: weight}
		s.tenants[name] = t
		s.gauge.Set(float64(len(s.tenants)))
	}
	return t
}

// maybeSweepLocked rate-limits reclamation to once per second (or
// once per IdleTTL when that is shorter), so an adversarial flood of
// fresh tenant names pays amortized O(1) per admission.
func (s *sched) maybeSweepLocked(now time.Time) {
	if s.idleTTL < 0 {
		return
	}
	interval := time.Second
	if s.idleTTL < interval {
		interval = s.idleTTL
	}
	if now.Sub(s.lastSweep) < interval {
		return
	}
	s.lastSweep = now
	s.reapLocked(now)
}

// reapLocked deletes tenants that hold nothing, wait for nothing and
// have been idle past IdleTTL.
func (s *sched) reapLocked(now time.Time) {
	for name, t := range s.tenants {
		if t.held == 0 && t.asyncHeld == 0 && len(t.waiting) == 0 && !t.inRotation &&
			now.Sub(t.lastSeen) >= s.idleTTL {
			delete(s.tenants, name)
		}
	}
	s.gauge.Set(float64(len(s.tenants)))
}

// reap forces one reclamation pass; tests drive it with a synthetic
// clock instead of waiting out IdleTTL.
func (s *sched) reap(now time.Time) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.reapLocked(now)
}

// setDraining refuses all future admissions and wakes every parked
// waiter with queue_full, so Shutdown never waits out AdmitWait.
func (s *sched) setDraining() {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.draining = true
	for _, t := range s.tenants {
		for _, w := range t.waiting {
			close(w.ready) // granted stays false: the waiter reads queue_full
		}
		t.waiting = nil
		t.inRotation = false
		t.deficit = 0
	}
	s.rotation = nil
	s.waitingTotal = 0
	s.cursor = 0
}

func (s *sched) isDraining() bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.draining
}

// inflight reports granted slots, for healthz.
func (s *sched) inflight() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.running
}

// tenantCount reports tracked tenants, for healthz and leak tests.
func (s *sched) tenantCount() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return len(s.tenants)
}
