package experiments

import (
	"fmt"
	"strings"
)

// CSV renderers for every harness, so the cmd tools can feed external
// plotting (the paper's figures are line/bar charts over exactly these
// columns).

// CSV renders the sweep with both the Fig. 7 (average, normalised and raw)
// and Tab. 2 (worst-case) metrics per system.
func (s *MakespanSweep) CSV() string {
	var sb strings.Builder
	systems := s.Systems()
	sb.WriteString(s.Name)
	for _, sys := range systems {
		fmt.Fprintf(&sb, ",avg_%s,norm_avg_%s,worst_%s", slug(sys), slug(sys), slug(sys))
	}
	sb.WriteByte('\n')
	for i, pt := range s.Points {
		fmt.Fprintf(&sb, "%g", pt.Param)
		for _, sys := range systems {
			fmt.Fprintf(&sb, ",%.6g,%.6g,%.6g",
				pt.Avg[sys], s.NormAvg[i].Avg[sys], pt.Worst[sys])
		}
		sb.WriteByte('\n')
	}
	return sb.String()
}

// CSV renders the success-ratio sweep.
func (r *CaseStudyResult) CSV() string {
	var sb strings.Builder
	sb.WriteString("utilization")
	for _, sys := range CaseStudySystems() {
		fmt.Fprintf(&sb, ",%s", slug(sys.String()))
	}
	sb.WriteByte('\n')
	for _, pt := range r.Points {
		fmt.Fprintf(&sb, "%g", pt.Utilization)
		for _, sys := range CaseStudySystems() {
			fmt.Fprintf(&sb, ",%.6g", pt.Success[sys.String()])
		}
		sb.WriteByte('\n')
	}
	return sb.String()
}

// SideEffectsCSV renders Fig. 8(c)'s points.
func SideEffectsCSV(points []SideEffectsPoint) string {
	var sb strings.Builder
	sb.WriteString("cores,utilization,way_utilization,phi\n")
	for _, pt := range points {
		fmt.Fprintf(&sb, "%d,%g,%.6g,%.6g\n",
			pt.Cores, pt.Utilization, pt.WayUtilization, pt.Phi)
	}
	return sb.String()
}

// AcceptanceCSV renders the acceptance-ratio sweep.
func AcceptanceCSV(points []AcceptancePoint) string {
	var sb strings.Builder
	sb.WriteString("utilization,cmp_bound,prop_bound,prop_simulated\n")
	for _, pt := range points {
		fmt.Fprintf(&sb, "%g,%.6g,%.6g,%.6g\n",
			pt.Utilization, pt.BaseAccepted, pt.PropAccepted, pt.SimFeasible)
	}
	return sb.String()
}

// slug turns a system name into a CSV-safe column name.
func slug(s string) string {
	s = strings.ToLower(s)
	s = strings.ReplaceAll(s, "|", "_")
	s = strings.ReplaceAll(s, "-", "_")
	return s
}
