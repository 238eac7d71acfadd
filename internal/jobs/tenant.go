package jobs

import (
	"errors"
	"fmt"
	"math"
	"sort"
	"time"

	"repro/internal/obs"
)

// DefaultTenant is the namespace jobs with an empty Spec.Tenant are
// accounted to.
const DefaultTenant = "default"

// tenantOf maps a spec's tenant field to its accounting namespace.
func tenantOf(name string) string {
	if name == "" {
		return DefaultTenant
	}
	return name
}

// Quota bounds one tenant's use of the manager. The zero value is
// unlimited; each field is enforced independently when positive.
type Quota struct {
	// MaxQueued caps jobs waiting for a run-pool slot. Submissions beyond
	// it fail with ErrQuotaExceeded — backpressure at admission, before
	// any durable state is written.
	MaxQueued int `json:"max_queued,omitempty"`
	// MaxRunning caps the tenant's simultaneously running jobs. Jobs over
	// the cap stay queued (other tenants' jobs pass them — no head-of-line
	// blocking) until one of the tenant's runs finishes.
	MaxRunning int `json:"max_running,omitempty"`
	// RatePerSec is a token-bucket submission rate limit. Submissions
	// finding the bucket empty fail with ErrRateLimited.
	RatePerSec float64 `json:"rate_per_sec,omitempty"`
	// Burst is the bucket depth; zero selects ceil(RatePerSec), min 1.
	Burst int `json:"burst,omitempty"`
	// Weight is the tenant's fair-share weight on the manager's shared sched
	// pool: while tenants are backlogged there, a weight-w tenant's batches
	// receive w dispatch slots per weight-1 slot (see sched.FairShare). Only
	// costed in-process sampling reaches that pool (see Config.SchedPolicy).
	// Zero selects 1. Unlike the other fields it shapes capacity rather than
	// bounding it: an idle pool still serves any tenant at full speed.
	Weight int `json:"weight,omitempty"`
}

// weight is the effective fair-share weight.
func (q Quota) weight() int {
	if q.Weight > 0 {
		return q.Weight
	}
	return 1
}

// burst is the effective bucket depth.
func (q Quota) burst() float64 {
	if q.Burst > 0 {
		return float64(q.Burst)
	}
	return math.Max(1, math.Ceil(q.RatePerSec))
}

// ErrQuotaExceeded is returned by Submit when the tenant's MaxQueued quota
// is exhausted (HTTP 429 at the optd layer).
var ErrQuotaExceeded = errors.New("jobs: tenant queued-job quota exceeded")

// ErrRateLimited is returned by Submit when the tenant's token bucket is
// empty (HTTP 429 at the optd layer).
var ErrRateLimited = errors.New("jobs: tenant submission rate exceeded")

// tenantState is the manager's accounting record for one namespace. All
// fields are guarded by Manager.mu.
type tenantState struct {
	name  string
	quota Quota

	queued    int // guarded by mu: jobs waiting (or reserved mid-submit)
	running   int // guarded by mu
	submitted int // guarded by mu: jobs accepted
	rejected  int // guarded by mu: submissions refused by quota or rate

	tokens     float64   // guarded by mu: token bucket level
	lastRefill time.Time // guarded by mu

	mQueued    *obs.Gauge
	mRunning   *obs.Gauge
	mSubmitted *obs.Counter
	mRejQuota  *obs.Counter
	mRejRate   *obs.Counter
}

// tenantLocked returns (creating on first use) the named tenant's state.
func (m *Manager) tenantLocked(name string) *tenantState {
	if ts, ok := m.tenants[name]; ok {
		return ts
	}
	quota, ok := m.cfg.TenantQuotas[name]
	if !ok {
		quota = m.cfg.DefaultQuota
	}
	// Register the tenant's fair-share weight with the fleet scheduler, so
	// its first batch already dispatches at the right share.
	m.pool.SetWeight(name, quota.weight())
	reg := obs.Default()
	ts := &tenantState{
		name:       name,
		quota:      quota,
		tokens:     quota.burst(), // a fresh tenant starts with a full bucket
		lastRefill: m.now(),
		mQueued: reg.Gauge(fmt.Sprintf("jobs_tenant_queued{tenant=%q}", name),
			"jobs queued, by tenant"),
		mRunning: reg.Gauge(fmt.Sprintf("jobs_tenant_running{tenant=%q}", name),
			"jobs running, by tenant"),
		mSubmitted: reg.Counter(fmt.Sprintf("jobs_tenant_submitted_total{tenant=%q}", name),
			"jobs accepted, by tenant"),
		mRejQuota: reg.Counter(fmt.Sprintf("jobs_tenant_rejected_total{tenant=%q,reason=\"quota\"}", name),
			"submissions refused by the queued-job quota, by tenant"),
		mRejRate: reg.Counter(fmt.Sprintf("jobs_tenant_rejected_total{tenant=%q,reason=\"rate\"}", name),
			"submissions refused by the rate limit, by tenant"),
	}
	m.tenants[name] = ts
	return ts
}

// admitLocked charges one submission against the tenant's rate limit and
// queued-job quota, reserving a queued slot on success. The reservation
// holds while the caller persists the job outside the lock; roll it back
// with unadmitLocked if persistence fails.
func (m *Manager) admitLocked(ts *tenantState, now time.Time) error {
	q := ts.quota
	// The queued-job quota is checked before the rate limit: the quota
	// rejection reserves nothing, while the rate check consumes a token.
	// In the other order a tenant pinned at its queue cap would drain its
	// bucket on every rejected submission and then eat spurious rate
	// errors after the queue frees up.
	if q.MaxQueued > 0 && ts.queued >= q.MaxQueued {
		ts.rejected++
		ts.mRejQuota.Inc()
		return fmt.Errorf("%w: tenant %q has %d jobs queued (max %d)", ErrQuotaExceeded, ts.name, ts.queued, q.MaxQueued)
	}
	if q.RatePerSec > 0 {
		// Token-bucket refill: elapsed wall time buys tokens, capped at the
		// bucket depth so idle time cannot bank an unbounded burst.
		ts.tokens = math.Min(q.burst(), ts.tokens+now.Sub(ts.lastRefill).Seconds()*q.RatePerSec)
		ts.lastRefill = now
		if ts.tokens < 1 {
			ts.rejected++
			ts.mRejRate.Inc()
			return fmt.Errorf("%w: tenant %q over %.3g/s", ErrRateLimited, ts.name, q.RatePerSec)
		}
		ts.tokens--
	}
	ts.queued++
	ts.mQueued.Set(float64(ts.queued))
	return nil
}

// unadmitLocked releases an admitLocked reservation that never became a
// job. The rate-limit token is deliberately not refunded: the submission
// attempt consumed real work.
func (m *Manager) unadmitLocked(ts *tenantState) {
	ts.queued--
	ts.mQueued.Set(float64(ts.queued))
}

// atRunCapLocked reports whether the tenant has no running capacity left.
func (ts *tenantState) atRunCapLocked() bool {
	return ts.quota.MaxRunning > 0 && ts.running >= ts.quota.MaxRunning
}

// startLocked moves one of the tenant's jobs from queued to running.
func (ts *tenantState) startLocked() {
	ts.queued--
	ts.running++
	ts.mQueued.Set(float64(ts.queued))
	ts.mRunning.Set(float64(ts.running))
}

// finishLocked accounts one job leaving the given state.
func (ts *tenantState) finishLocked(from State) {
	switch from {
	case StateQueued:
		ts.queued--
		ts.mQueued.Set(float64(ts.queued))
	case StateRunning:
		ts.running--
		ts.mRunning.Set(float64(ts.running))
	}
}

// TenantStats is one tenant's aggregate accounting, surfaced by the optd
// /healthz payload.
type TenantStats struct {
	Tenant    string `json:"tenant"`
	Queued    int    `json:"queued"`
	Running   int    `json:"running"`
	Submitted int    `json:"submitted"`
	Rejected  int    `json:"rejected"`
	// Weight is the effective fair-share weight (Quota.Weight, min 1).
	Weight int   `json:"weight"`
	Quota  Quota `json:"quota,omitzero"`
}

// Tenants returns per-tenant accounting, sorted by tenant name. Only
// tenants that have submitted (or been recovered) appear.
func (m *Manager) Tenants() []TenantStats {
	m.mu.Lock()
	defer m.mu.Unlock()
	out := make([]TenantStats, 0, len(m.tenants))
	//optlint:nondeterministic-ok sorted immediately below
	for _, ts := range m.tenants {
		out = append(out, TenantStats{
			Tenant:    ts.name,
			Queued:    ts.queued,
			Running:   ts.running,
			Submitted: ts.submitted,
			Rejected:  ts.rejected,
			Weight:    ts.quota.weight(),
			Quota:     ts.quota,
		})
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Tenant < out[j].Tenant })
	return out
}
