package forensics

import (
	"fmt"
	"strings"
)

// Gantt draws an ASCII per-core chart of the job's window [release,
// finish], one row per core any span ran on. The job's spans render as
// letters (cycling by node ID, see the legend line); other jobs' spans
// overlapping the window render as '.'. It returns "" for an unknown
// job, an empty window or a width below 8.
func (m *Model) Gantt(key JobKey, width int) string {
	j, ok := m.byKey[key]
	if !ok {
		return ""
	}
	t0, t1 := j.Release, j.Finish
	if width < 8 || t1 <= t0 {
		return ""
	}
	marker := make(map[*Span]byte)
	legend := make([]string, 0, len(j.Spans))
	for i, id := range j.Nodes() {
		c := byte('a' + i%26)
		marker[j.Spans[id]] = c
		if i < 26 {
			legend = append(legend, fmt.Sprintf("%c=n%d", c, id))
		}
	}
	var sb strings.Builder
	fmt.Fprintf(&sb, "timeline [%.4g, %.4g]:\n", t0, t1)
	row := make([]byte, width)
	for _, core := range m.Cores() {
		for i := range row {
			row[i] = ' '
		}
		for _, sp := range m.spans {
			if sp.Core != core || sp.Finish <= t0 || sp.Start >= t1 {
				continue
			}
			ch, focus := marker[sp]
			if !focus {
				ch = '.'
			}
			lo := int(float64(width) * (sp.Start - t0) / (t1 - t0))
			hi := int(float64(width) * (sp.Finish - t0) / (t1 - t0))
			for i := max(lo, 0); i <= hi && i < width; i++ {
				if row[i] == ' ' || focus {
					row[i] = ch
				}
			}
		}
		fmt.Fprintf(&sb, "core %2d |%s|\n", core, row)
	}
	if len(legend) > 0 {
		fmt.Fprintf(&sb, "  legend: %s\n", strings.Join(legend, " "))
	}
	return sb.String()
}
