package telemetry

import (
	"io"

	"mobieyes/internal/obs"
)

// WriteText writes the health view: one status line, then one line per
// node, then any active alerts.
func (s Snapshot) WriteText(w io.Writer) error {
	p := obs.TextWriter{W: w}
	p.Printf("health %s epoch %d rounds %d handoffs %d recoveries %d\n",
		s.Health, s.Epoch, s.Rounds, s.Handoffs, s.Recoveries)
	for _, n := range s.Nodes {
		state := "live"
		if !n.Live {
			state = "dead"
		}
		if n.Recovering {
			state = "recovering"
		}
		p.Printf("node %d %s cells [%d,%d) epoch %d ops %d batches %d events %d age %.1fs rtt %.2fms",
			n.Node, state, n.Lo, n.Hi, n.Epoch, n.Ops, n.Batches, n.Events, n.AgeSeconds, n.RTTMillis)
		if n.ProbeError != "" {
			p.Printf(" fault %q", n.ProbeError)
		}
		p.Printf("\n")
	}
	for _, a := range s.Alerts {
		p.Printf("%s\n", a.String())
	}
	return p.Err
}

// View is the cluster telemetry view (/debug/cluster, admin HEALTH): the
// plane's Snapshot — health, per-node telemetry state and active alerts.
// A nil plane (any server but a -cluster router) is disabled.
func (p *Plane) View() obs.View {
	return obs.View{
		Name: "cluster", Path: "/debug/cluster", Word: "HEALTH",
		Doc: "cluster health, per-node telemetry and active alerts (needs -cluster router)",
		Get: func(obs.Args) (obs.Body, error) {
			if p == nil {
				return nil, obs.Disabled("telemetry")
			}
			return p.Snapshot(), nil
		},
	}
}
