// Package simtest is the deterministic simulation-test harness: it drives
// the serial core.Server, the concurrent core.ClusterServer router, and the
// internal/remote network server over in-memory pipes through identical
// seeded operation schedules, asserting after every operation that all
// three agree with each other and — when the protocol variant is exact —
// with the brute-force ground-truth evaluator (DESIGN.md §10).
//
// A schedule is a flat list of Ops generated from a seed. Everything
// downstream of the seed is deterministic: the workload's object
// population, query specs and mobility process, the schedule itself, and
// the engines' query-identifier assignment. A failing (seed, schedule)
// pair therefore replays exactly, which is what makes the Shrink
// minimizer and the printed repro cases possible.
package simtest

import (
	"fmt"
	"math/rand"
	"strconv"
	"strings"
)

// OpKind enumerates schedule operations.
type OpKind int

const (
	// OpStep advances the world one mobility step and runs the three
	// client protocol phases on every engine.
	OpStep OpKind = iota
	// OpInstall installs query spec A (index into the workload's
	// pre-generated query set) on every engine.
	OpInstall
	// OpInstallUntil installs spec A with an expiry B steps in the future.
	OpInstallUntil
	// OpRemove removes the A%n-th currently installed query (no-op when
	// none are installed).
	OpRemove
	// OpDepart makes the A%n-th currently active object leave the system.
	OpDepart
	// OpJoin brings the A%n-th currently departed object back.
	OpJoin
)

var opNames = [...]string{"step", "install", "installuntil", "remove", "depart", "join"}

// Op is one schedule operation. A and B parameterize the kind; see the
// OpKind constants.
type Op struct {
	Kind OpKind
	A, B int
}

func (o Op) String() string {
	switch o.Kind {
	case OpStep:
		return "step"
	case OpInstallUntil:
		return fmt.Sprintf("installuntil %d %d", o.A, o.B)
	default:
		return fmt.Sprintf("%s %d", opNames[o.Kind], o.A)
	}
}

// FormatSchedule renders ops one per line, the replayable text form
// printed for a shrunk failing case and accepted by ParseSchedule.
func FormatSchedule(ops []Op) string {
	var b strings.Builder
	for _, op := range ops {
		b.WriteString(op.String())
		b.WriteByte('\n')
	}
	return b.String()
}

// ParseSchedule is the inverse of FormatSchedule. Blank lines and lines
// starting with '#' are skipped.
func ParseSchedule(s string) ([]Op, error) {
	var ops []Op
	for ln, line := range strings.Split(s, "\n") {
		fields := strings.Fields(line)
		if len(fields) == 0 || strings.HasPrefix(fields[0], "#") {
			continue
		}
		kind := -1
		for k, name := range opNames {
			if fields[0] == name {
				kind = k
				break
			}
		}
		if kind < 0 {
			return nil, fmt.Errorf("simtest: line %d: unknown op %q", ln+1, fields[0])
		}
		op := Op{Kind: OpKind(kind)}
		want := 2
		switch op.Kind {
		case OpStep:
			want = 1
		case OpInstallUntil:
			want = 3
		}
		if len(fields) != want {
			return nil, fmt.Errorf("simtest: line %d: %s takes %d arg(s)", ln+1, fields[0], want-1)
		}
		if want >= 2 {
			a, err := strconv.Atoi(fields[1])
			if err != nil {
				return nil, fmt.Errorf("simtest: line %d: %v", ln+1, err)
			}
			op.A = a
		}
		if want >= 3 {
			b, err := strconv.Atoi(fields[2])
			if err != nil {
				return nil, fmt.Errorf("simtest: line %d: %v", ln+1, err)
			}
			op.B = b
		}
		ops = append(ops, op)
	}
	return ops, nil
}

// GenConfig bounds schedule generation.
type GenConfig struct {
	// Ops is the approximate schedule length.
	Ops int
	// NumSpecs is the size of the workload's query-spec pool the install
	// ops index into.
	NumSpecs int
	// AllowExpiry includes OpInstallUntil ops. Local-only scenarios: the
	// remote server's expiry sweep runs on the wall clock, not sim time.
	AllowExpiry bool
	// AllowChurn includes OpDepart/OpJoin ops.
	AllowChurn bool
	// StepOnly restricts [StepOnlyFrom, StepOnlyTo) to OpStep — used to
	// keep fault windows free of control-plane ops, whose loss (e.g. a
	// dropped FocalNotify) the resync protocol does not heal.
	StepOnlyFrom, StepOnlyTo int
}

// Generate produces a seeded random schedule. It always begins with an
// install and a step (so there is state to compare) and ends with two
// steps (so the last mutation's effects are observed).
func Generate(rng *rand.Rand, cfg GenConfig) []Op {
	ops := []Op{{Kind: OpInstall, A: rng.Intn(cfg.NumSpecs)}, {Kind: OpStep}}
	for len(ops) < cfg.Ops {
		if i := len(ops); cfg.StepOnlyTo > cfg.StepOnlyFrom && i >= cfg.StepOnlyFrom && i < cfg.StepOnlyTo {
			ops = append(ops, Op{Kind: OpStep})
			continue
		}
		r := rng.Float64()
		switch {
		case r < 0.50:
			ops = append(ops, Op{Kind: OpStep})
		case r < 0.72:
			ops = append(ops, Op{Kind: OpInstall, A: rng.Intn(cfg.NumSpecs)})
		case r < 0.82:
			ops = append(ops, Op{Kind: OpRemove, A: rng.Intn(1 << 16)})
		case r < 0.88 && cfg.AllowExpiry:
			ops = append(ops, Op{Kind: OpInstallUntil, A: rng.Intn(cfg.NumSpecs), B: 1 + rng.Intn(4)})
		case r < 0.94 && cfg.AllowChurn:
			ops = append(ops, Op{Kind: OpDepart, A: rng.Intn(1 << 16)})
		case cfg.AllowChurn:
			ops = append(ops, Op{Kind: OpJoin, A: rng.Intn(1 << 16)})
		default:
			ops = append(ops, Op{Kind: OpStep})
		}
	}
	return append(ops, Op{Kind: OpStep}, Op{Kind: OpStep})
}
