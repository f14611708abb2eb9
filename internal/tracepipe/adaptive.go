package tracepipe

import (
	"time"

	"ktau/internal/ktau"
	"ktau/internal/perfmon"
	"ktau/internal/sim"
)

// Policy is one node's trace-collection policy: which event groups the
// agent keeps, and at what probability. Group bits outside both masks are
// dropped entirely; bits in FullGroups are always kept; bits in Groups (but
// not FullGroups) are kept with probability Rate. User-level (TAU) records
// are classified as ktau.GroupUser; records of events the registry does not
// know are treated like Groups members so unknown activity is sampled, never
// silently discarded.
//
// The zero Policy keeps nothing; most callers start from the Adaptive
// default ({GroupAll, rate 1} = full tracing) and dial Rate down.
type Policy struct {
	Groups     ktau.Group
	FullGroups ktau.Group
	Rate       float64
}

// FullPolicy traces every group at full rate — what the collector's focus
// loop pushes to flagged nodes by default.
func FullPolicy() Policy {
	return Policy{Groups: ktau.GroupAll, FullGroups: ktau.GroupAll, Rate: 1}
}

// rateFor resolves the keep probability for one event's group bits.
func (p Policy) rateFor(g ktau.Group) float64 {
	if g&p.FullGroups != 0 {
		return 1
	}
	if g != 0 && g&p.Groups == 0 {
		return 0
	}
	if p.Rate >= 1 {
		return 1
	}
	if p.Rate <= 0 {
		return 0
	}
	return p.Rate
}

// Adaptive enables the agent-side mechanisms that keep the pipeline cheap
// enough to stay on: deterministic per-group sampling (Base) and a backlog
// throttle that degrades the policy when the node falls behind and recovers
// when it drains. All decisions are functions of simulated state and the
// node's seeded RNG stream, never wall clock, so adaptive runs stay
// byte-identical at any worker count.
type Adaptive struct {
	// Base is the steady-state policy (zero value = full tracing). The
	// collector's focus loop may override it per node.
	Base Policy
	// ThrottleHigh degrades the policy one level when a round finds this
	// many records waiting in the node's rings (default 2048). A frame the
	// agent failed to ship degrades it too, regardless of backlog.
	ThrottleHigh uint64
	// ThrottleLow is the backlog under which a round counts as calm
	// (default ThrottleHigh/4); between the two thresholds the level holds.
	ThrottleLow uint64
	// RecoverAfter is how many consecutive calm rounds recover one level
	// (default 2).
	RecoverAfter int
	// DegradeFactor multiplies the sampling rate per throttle level
	// (default 0.5), floored at MinRate (default 0.01).
	DegradeFactor float64
	MinRate       float64
	// MaxLevel caps the throttle depth (default 4); at MaxLevel the policy's
	// group masks are additionally intersected with DegradedGroups (default
	// GroupSched — scheduling events survive even a drowning node). Set -1
	// to disable throttling entirely (pure rate sweep).
	MaxLevel       int
	DegradedGroups ktau.Group
}

// withDefaults returns a copy with the documented defaults applied.
func (a Adaptive) withDefaults() Adaptive {
	if a.Base == (Policy{}) {
		a.Base = Policy{Groups: ktau.GroupAll, Rate: 1}
	}
	if a.ThrottleHigh == 0 {
		a.ThrottleHigh = 2048
	}
	if a.ThrottleLow == 0 {
		a.ThrottleLow = a.ThrottleHigh / 4
	}
	if a.RecoverAfter <= 0 {
		a.RecoverAfter = 2
	}
	if a.DegradeFactor <= 0 || a.DegradeFactor >= 1 {
		a.DegradeFactor = 0.5
	}
	if a.MinRate <= 0 {
		a.MinRate = 0.01
	}
	if a.MaxLevel == 0 {
		a.MaxLevel = 4
	}
	if a.DegradedGroups == 0 {
		a.DegradedGroups = ktau.GroupSched
	}
	return a
}

// effective derives the policy actually applied at a throttle level.
func (a *Adaptive) effective(base Policy, level int) Policy {
	if level <= 0 {
		return base
	}
	p := base
	for i := 0; i < level; i++ {
		p.Rate *= a.DegradeFactor
	}
	if p.Rate < a.MinRate {
		p.Rate = a.MinRate
	}
	if level >= a.MaxLevel {
		p.Groups &= a.DegradedGroups
		p.FullGroups &= a.DegradedGroups
	}
	return p
}

// throttle is one agent's degradation state machine. Its inputs — the
// round's ring backlog and whether the frame shipped — are functions of the
// node's own simulated execution, so the level trajectory is deterministic.
type throttle struct {
	level int
	calm  int
}

// observe folds one finished round into the state machine.
func (t *throttle) observe(a *Adaptive, backlog uint64, shipFailed bool) {
	if a.MaxLevel < 0 {
		return
	}
	if shipFailed || backlog >= a.ThrottleHigh {
		t.calm = 0
		if t.level < a.MaxLevel {
			t.level++
		}
		return
	}
	if backlog > a.ThrottleLow {
		// Hysteresis band: hold the level, reset the calm streak.
		t.calm = 0
		return
	}
	t.calm++
	if t.level > 0 && t.calm >= a.RecoverAfter {
		t.level--
		t.calm = 0
	}
}

// sample decides one record's fate: true keeps it. Only rates strictly
// between 0 and 1 consume a draw, so disabling sampling (or masking a group
// out) never perturbs the RNG stream.
func sample(rng *sim.RNG, rate float64) bool {
	if rate >= 1 {
		return true
	}
	if rate <= 0 {
		return false
	}
	return rng.Float64() < rate
}

// FocusConfig closes the loop the paper sketches for integrated views: the
// collector watches the perfmon store's OS-noise detector and pushes a
// higher-fidelity policy to flagged nodes ("full scheduling events on
// flagged nodes, sampled elsewhere") while the rest of the cluster stays on
// the cheap Base policy. The loop runs at window barriers on the runner —
// the store is quiescent there and the hook order is identical at any
// worker count — and policies travel to agents as cross-engine posts one
// lookahead ahead, the same discipline as any other cross-node message.
type FocusConfig struct {
	// Store is the perfmon profile store the detector reads. Deployments
	// made through experiments.RunChibaLive wire it automatically; direct
	// tracepipe users must set it.
	Store *perfmon.Store
	// Detect tunes the OS-noise detector (zero value = detector defaults).
	Detect perfmon.DetectConfig
	// RankPrefix classifies application processes for the detector
	// (perfmon's rank-name convention, e.g. "LU.rank").
	RankPrefix string
	// Interval is the virtual time between detector sweeps (default 100ms).
	Interval time.Duration
	// Full is the policy pushed to flagged nodes (zero value = FullPolicy).
	Full Policy
}

// withDefaults returns a copy with the documented defaults applied.
func (f FocusConfig) withDefaults() FocusConfig {
	if f.Interval <= 0 {
		f.Interval = 100 * time.Millisecond
	}
	if f.Full == (Policy{}) {
		f.Full = FullPolicy()
	}
	return f
}

// policyBox is one node's pushed-policy slot. It is written only by posts
// executing on the node's own engine and read only by the node's agent, so
// no locking is needed and reads are deterministic.
type policyBox struct {
	p  Policy
	ok bool
}

// focusTick runs at every window barrier: paced by virtual time, it sweeps
// the noise detector and posts policy changes to nodes whose desired policy
// flipped since the last sweep.
func (tp *Pipeline) focusTick() {
	now := tp.c.Runner.Now()
	if now < tp.nextFocus {
		return
	}
	tp.nextFocus = now.Add(tp.focus.Interval)
	rep := tp.focus.Store.DetectNoise(tp.focus.Detect, tp.focus.RankPrefix)
	flagged := make(map[string]bool, len(rep.Flagged))
	for _, name := range rep.Flagged {
		flagged[name] = true
	}
	src := tp.Collector()
	if src < 0 {
		src = 0
	}
	at := now.Add(tp.c.Runner.Lookahead())
	for i, n := range tp.c.Nodes {
		want := tp.ad.Base
		if flagged[n.Name] {
			want = tp.focus.Full
		}
		if want == tp.lastPushed[i] {
			continue
		}
		tp.lastPushed[i] = want
		box, w := tp.polBoxes[i], want
		tp.c.Runner.Post(src, i, at, func() { box.p, box.ok = w, true })
	}
}
