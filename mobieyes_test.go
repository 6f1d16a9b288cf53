package mobieyes

import "testing"

// TestFacadeRun exercises the public simulation API end to end.
func TestFacadeRun(t *testing.T) {
	cfg := DefaultConfig()
	cfg.NumObjects = 500
	cfg.NumQueries = 50
	cfg.VelocityChangesPerStep = 50
	cfg.AreaSqMiles = 5000
	cfg.Steps = 5
	cfg.Warmup = 2
	cfg.MeasureError = true

	m := Run(cfg)
	if m.Approach != MobiEyes {
		t.Errorf("Approach = %v", m.Approach)
	}
	if m.MessagesPerSecond() <= 0 {
		t.Error("no traffic")
	}
	if m.AvgError != 0 {
		t.Errorf("EQP error = %v", m.AvgError)
	}

	cfg.Core.Mode = LazyPropagation
	lqp := Run(cfg)
	if lqp.UplinkMsgs >= m.UplinkMsgs {
		t.Errorf("LQP uplinks %d not below EQP %d", lqp.UplinkMsgs, m.UplinkMsgs)
	}
}

// TestFacadeApproaches runs every baseline through the facade constants.
func TestFacadeApproaches(t *testing.T) {
	for _, a := range []Approach{Naive, CentralOptimal, ObjectIndex, QueryIndex} {
		cfg := DefaultConfig()
		cfg.Approach = a
		cfg.NumObjects = 300
		cfg.NumQueries = 30
		cfg.VelocityChangesPerStep = 30
		cfg.AreaSqMiles = 2500
		cfg.Steps = 3
		cfg.Warmup = 1
		if m := Run(cfg); m.UplinkMsgs == 0 {
			t.Errorf("%v produced no traffic", a)
		}
	}
}
