// Package workload generates the simulation workload of Table 1 of the
// MobiEyes paper: objects placed uniformly over the universe of discourse
// with zipf-distributed maximum speeds, queries with zipf-distributed
// normal radii and fixed-selectivity filters over uniformly chosen focal
// objects, and the per-step velocity perturbation process ("in every time
// step we pick a number of objects at random and set their normalized
// velocity vectors to a random direction, while setting their velocity to a
// random value between zero and their maximum velocity").
package workload

import (
	"fmt"
	"math"
	"math/rand"

	"mobieyes/internal/geo"
	"mobieyes/internal/model"
)

// MobilityModel selects how objects move between steps.
type MobilityModel int

const (
	// RandomWalk is the paper's model: each step, nmo randomly chosen
	// objects point in a fresh uniform direction at a uniform speed.
	RandomWalk MobilityModel = iota
	// RandomWaypoint is the classic alternative mobility model: each
	// object travels to a uniformly chosen destination, pauses there for a
	// random number of steps, then picks the next destination. Velocity
	// changes arise from arrivals instead of the nmo process.
	RandomWaypoint
	// GaussMarkov evolves every object's velocity each step as a mean-
	// reverting AR(1) process: vₜ₊₁ = κ·vₜ + (1−κ)·v̄ + σ√(1−κ²)·ε, with
	// v̄ the object's cruising velocity and κ the memory parameter. Motion
	// is smooth (no teleporting direction flips), producing many small
	// velocity changes per step — a stress case for dead reckoning.
	GaussMarkov
)

// String implements fmt.Stringer.
func (m MobilityModel) String() string {
	switch m {
	case RandomWaypoint:
		return "RandomWaypoint"
	case GaussMarkov:
		return "GaussMarkov"
	default:
		return "RandomWalk"
	}
}

// Config parameterizes workload generation. Field names follow Table 1.
type Config struct {
	UoD geo.Rect

	NumObjects             int // no
	NumQueries             int // nmq
	VelocityChangesPerStep int // nmo

	// Mobility selects the movement process (default: the paper's
	// RandomWalk). StepSeconds is the simulation time step the mobility
	// process is driven at; WaypointPauseSteps bounds the random pause at
	// each waypoint (inclusive).
	Mobility           MobilityModel
	StepSeconds        float64
	WaypointPauseSteps [2]int
	// GaussMarkovMemory is κ ∈ [0, 1): 0 = memoryless, →1 = nearly
	// constant velocity. GaussMarkovSigma scales the per-step noise as a
	// fraction of the object's maximum speed.
	GaussMarkovMemory float64
	GaussMarkovSigma  float64

	// MaxSpeeds are the candidate per-object maximum speeds (mph), most
	// popular first; the assignment follows a zipf distribution.
	MaxSpeeds []float64
	// RadiusMeans are the candidate query-radius means (miles), most
	// popular first (zipf); the actual radius is normal with standard
	// deviation RadiusStdDevFrac × mean.
	RadiusMeans      []float64
	RadiusStdDevFrac float64
	// ZipfTheta is the zipf parameter (paper: 0.8).
	ZipfTheta float64
	// SelectivityPermille is the query filter selectivity in 1/1000 units
	// (paper: 750).
	SelectivityPermille uint32
	// RadiusFactor scales all query radii (Fig. 12's x-axis); 1 = paper
	// default.
	RadiusFactor float64

	Seed int64
}

// Default returns the Table 1 default workload configuration over the given
// universe of discourse.
func Default(uod geo.Rect) Config {
	return Config{
		UoD:                    uod,
		NumObjects:             10000,
		NumQueries:             1000,
		VelocityChangesPerStep: 1000,
		MaxSpeeds:              []float64{100, 50, 150, 200, 250},
		RadiusMeans:            []float64{3, 2, 1, 4, 5},
		RadiusStdDevFrac:       0.2, // 1/5 of the mean
		ZipfTheta:              0.8,
		SelectivityPermille:    750,
		RadiusFactor:           1,
		StepSeconds:            30,
		WaypointPauseSteps:     [2]int{0, 4},
		GaussMarkovMemory:      0.85,
		GaussMarkovSigma:       0.15,
		Seed:                   1,
	}
}

// QuerySpec describes one generated moving query before installation.
type QuerySpec struct {
	Focal  model.ObjectID
	Radius float64
	Filter model.Filter
}

// Workload holds a generated object population and query set plus the
// random process that drives them.
type Workload struct {
	cfg     Config
	rng     *rand.Rand
	speeds  *zipfList
	radii   *zipfList
	Objects []*model.MovingObject
	Queries []QuerySpec

	// Random-waypoint state, parallel to Objects.
	dest      []geo.Point
	pauseLeft []int
	// Gauss-Markov cruising velocities, parallel to Objects.
	meanVel []geo.Vector

	// replay is the trace a FromTrace workload plays; played counts the
	// recorded steps applied so far. Nil for a generated workload.
	replay *Trace
	played int
}

// New generates a workload. It panics on nonsensical configurations (zero
// objects, empty candidate lists) — these are programming errors in
// experiment setup, not runtime conditions.
func New(cfg Config) *Workload {
	if cfg.NumObjects <= 0 {
		panic("workload: NumObjects must be positive")
	}
	if len(cfg.MaxSpeeds) == 0 || len(cfg.RadiusMeans) == 0 {
		panic("workload: empty candidate lists")
	}
	if cfg.RadiusFactor == 0 {
		cfg.RadiusFactor = 1
	}
	w := &Workload{
		cfg:    cfg,
		rng:    rand.New(rand.NewSource(cfg.Seed)),
		speeds: newZipfList(len(cfg.MaxSpeeds), cfg.ZipfTheta),
		radii:  newZipfList(len(cfg.RadiusMeans), cfg.ZipfTheta),
	}
	if cfg.StepSeconds <= 0 {
		w.cfg.StepSeconds = 30
	}
	w.generateObjects()
	w.generateQueries()
	if cfg.Mobility == RandomWaypoint {
		w.dest = make([]geo.Point, len(w.Objects))
		w.pauseLeft = make([]int, len(w.Objects))
		for i, o := range w.Objects {
			w.assignWaypoint(i, o)
		}
	}
	if cfg.Mobility == GaussMarkov {
		w.meanVel = make([]geo.Vector, len(w.Objects))
		for i, o := range w.Objects {
			w.meanVel[i] = o.Vel // the initial random velocity is the cruise
		}
	}
	return w
}

// Config returns the configuration the workload was generated from.
func (w *Workload) Config() Config { return w.cfg }

func (w *Workload) generateObjects() {
	u := w.cfg.UoD
	w.Objects = make([]*model.MovingObject, 0, w.cfg.NumObjects)
	for i := 0; i < w.cfg.NumObjects; i++ {
		maxVel := w.cfg.MaxSpeeds[w.speeds.sample(w.rng)]
		o := &model.MovingObject{
			ID:     model.ObjectID(i + 1),
			Pos:    geo.Pt(u.LX+w.rng.Float64()*u.W(), u.LY+w.rng.Float64()*u.H()),
			MaxVel: maxVel,
			Props:  model.Props{Key: w.rng.Uint64()},
		}
		w.RandomizeVelocity(o)
		w.Objects = append(w.Objects, o)
	}
}

func (w *Workload) generateQueries() {
	w.Queries = make([]QuerySpec, 0, w.cfg.NumQueries)
	for i := 0; i < w.cfg.NumQueries; i++ {
		mean := w.cfg.RadiusMeans[w.radii.sample(w.rng)]
		radius := (mean + w.rng.NormFloat64()*mean*w.cfg.RadiusStdDevFrac) * w.cfg.RadiusFactor
		if radius < 0.1 {
			radius = 0.1
		}
		w.Queries = append(w.Queries, QuerySpec{
			Focal:  model.ObjectID(w.rng.Intn(w.cfg.NumObjects) + 1),
			Radius: radius,
			Filter: model.Filter{Seed: w.rng.Uint64(), Permille: w.cfg.SelectivityPermille},
		})
	}
}

// Step advances the workload by one full mobility step: border bounces,
// the velocity perturbation process, then motion over StepSeconds. It
// returns the indices whose velocity the perturbation changed (border
// bounces excluded, exactly like PerturbStep). Engines that interleave
// protocol phases with these stages call the underlying methods directly;
// Step is for drivers that treat a step as one atomic world transition.
func (w *Workload) Step() []int {
	w.BounceAtBorders()
	changed := w.PerturbStep()
	dt := model.FromSeconds(w.cfg.StepSeconds)
	for _, o := range w.Objects {
		o.Move(dt)
	}
	return changed
}

// RandomizeVelocity points o in a uniformly random direction at a speed
// uniform in [0, o.MaxVel].
func (w *Workload) RandomizeVelocity(o *model.MovingObject) {
	ang := w.rng.Float64() * 2 * math.Pi
	speed := w.rng.Float64() * o.MaxVel
	o.Vel = geo.Vec(speed*math.Cos(ang), speed*math.Sin(ang))
}

// PerturbStep advances the mobility process by one step. Under RandomWalk
// (the paper's model) nmo randomly chosen objects get new random velocity
// vectors; under RandomWaypoint, arrivals pause and departures aim at fresh
// destinations. It returns the indices of objects whose velocity changed
// (with possible repetition under RandomWalk, as in the paper's "pick a
// number of objects at random"). A FromTrace workload applies its next
// recorded step instead.
func (w *Workload) PerturbStep() []int {
	if w.replay != nil {
		return w.replayStep()
	}
	switch w.cfg.Mobility {
	case RandomWaypoint:
		return w.waypointStep()
	case GaussMarkov:
		return w.gaussMarkovStep()
	}
	n := w.cfg.VelocityChangesPerStep
	changed := make([]int, 0, n)
	for k := 0; k < n; k++ {
		i := w.rng.Intn(len(w.Objects))
		w.RandomizeVelocity(w.Objects[i])
		changed = append(changed, i)
	}
	return changed
}

// waypointStep runs the random-waypoint process for every object: pausing
// objects count down and then depart; traveling objects that will reach
// their destination within this step adjust their velocity to land exactly
// on it and begin their pause.
func (w *Workload) waypointStep() []int {
	dtHours := w.cfg.StepSeconds / 3600
	var changed []int
	for i, o := range w.Objects {
		if w.pauseLeft[i] > 0 {
			// First pause step: the object landed last step; stop it.
			if o.Vel != (geo.Vector{}) {
				o.Vel = geo.Vec(0, 0)
				changed = append(changed, i)
			}
			w.pauseLeft[i]--
			if w.pauseLeft[i] == 0 {
				w.assignWaypoint(i, o)
				changed = append(changed, i)
			}
			continue
		}
		toGo := w.dest[i].Sub(o.Pos)
		if toGo.Len() <= o.Vel.Len()*dtHours {
			if toGo.Len() == 0 {
				// Already exactly at the destination: start pausing.
				o.Vel = geo.Vec(0, 0)
				w.pauseLeft[i] = w.pauseDuration() + 1
				changed = append(changed, i)
				continue
			}
			// Land exactly on the destination this step, then pause.
			o.Vel = toGo.Scale(1 / dtHours)
			w.pauseLeft[i] = w.pauseDuration() + 1
			changed = append(changed, i)
		}
	}
	return changed
}

// gaussMarkovStep advances every velocity by one AR(1) step, clipping the
// speed at the object's maximum. Every object changes velocity every step.
func (w *Workload) gaussMarkovStep() []int {
	k := w.cfg.GaussMarkovMemory
	noise := math.Sqrt(1 - k*k)
	changed := make([]int, 0, len(w.Objects))
	for i, o := range w.Objects {
		sigma := w.cfg.GaussMarkovSigma * o.MaxVel
		nv := geo.Vec(
			k*o.Vel.X+(1-k)*w.meanVel[i].X+noise*sigma*w.rng.NormFloat64(),
			k*o.Vel.Y+(1-k)*w.meanVel[i].Y+noise*sigma*w.rng.NormFloat64(),
		)
		if sp := nv.Len(); sp > o.MaxVel {
			nv = nv.Scale(o.MaxVel / sp)
		}
		if nv != o.Vel {
			o.Vel = nv
			changed = append(changed, i)
		}
	}
	return changed
}

// assignWaypoint aims object i at a fresh uniform destination at a uniform
// speed in (0, maxVel].
func (w *Workload) assignWaypoint(i int, o *model.MovingObject) {
	u := w.cfg.UoD
	w.dest[i] = geo.Pt(u.LX+w.rng.Float64()*u.W(), u.LY+w.rng.Float64()*u.H())
	speed := (0.2 + 0.8*w.rng.Float64()) * o.MaxVel
	dir := w.dest[i].Sub(o.Pos).Normalize()
	if dir == (geo.Vector{}) {
		dir = geo.Vec(1, 0)
	}
	o.Vel = dir.Scale(speed)
}

func (w *Workload) pauseDuration() int {
	lo, hi := w.cfg.WaypointPauseSteps[0], w.cfg.WaypointPauseSteps[1]
	if hi <= lo {
		return lo
	}
	return lo + w.rng.Intn(hi-lo+1)
}

// Destination returns object i's current waypoint (RandomWaypoint only).
func (w *Workload) Destination(i int) (geo.Point, bool) {
	if w.cfg.Mobility != RandomWaypoint {
		return geo.Point{}, false
	}
	return w.dest[i], true
}

// BounceAtBorders reflects the velocity of objects about to leave the
// universe of discourse, keeping the population inside (and uniform) over
// long runs. The reflection is a genuine velocity change, detected by dead
// reckoning like any other. A FromTrace workload does not bounce (see
// FromTrace).
func (w *Workload) BounceAtBorders() {
	if w.replay != nil {
		return
	}
	u := w.cfg.UoD
	for i, o := range w.Objects {
		if o.Pos.X <= u.LX && o.Vel.X < 0 || o.Pos.X >= u.HX && o.Vel.X > 0 {
			o.Vel.X = -o.Vel.X
			if w.meanVel != nil {
				// Reflect the Gauss-Markov cruise too, or mean reversion
				// would keep pulling the object back across the border.
				w.meanVel[i].X = -w.meanVel[i].X
			}
		}
		if o.Pos.Y <= u.LY && o.Vel.Y < 0 || o.Pos.Y >= u.HY && o.Vel.Y > 0 {
			o.Vel.Y = -o.Vel.Y
			if w.meanVel != nil {
				w.meanVel[i].Y = -w.meanVel[i].Y
			}
		}
	}
}

// zipfList samples ranks 0..n−1 with P(k) ∝ 1/(k+1)^θ.
type zipfList struct {
	cdf []float64
}

func newZipfList(n int, theta float64) *zipfList {
	if n <= 0 {
		panic(fmt.Sprintf("workload: zipf over %d items", n))
	}
	cdf := make([]float64, n)
	total := 0.0
	for k := 0; k < n; k++ {
		total += 1 / math.Pow(float64(k+1), theta)
		cdf[k] = total
	}
	for k := range cdf {
		cdf[k] /= total
	}
	return &zipfList{cdf: cdf}
}

func (z *zipfList) sample(rng *rand.Rand) int {
	u := rng.Float64()
	for k, c := range z.cdf {
		if u <= c {
			return k
		}
	}
	return len(z.cdf) - 1
}
