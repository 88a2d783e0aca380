package main

import (
	"fmt"
	"strings"
	"time"
)

// parseReport reads obs.Tracer.Report() back into span totals in seconds,
// keyed by "/"-joined path ("core/train", "train/epoch/forward"). The
// report prints one span per line, indented two spaces per level, with
// the call count, total and mean as the last three columns.
func parseReport(report string) (map[string]float64, error) {
	totals := map[string]float64{}
	var stack []string
	lines := strings.Split(strings.TrimRight(report, "\n"), "\n")
	if len(lines) == 0 || !strings.HasPrefix(lines[0], "span ") {
		return nil, fmt.Errorf("trace report: no header line")
	}
	for _, line := range lines[1:] {
		fields := strings.Fields(line)
		if len(fields) < 4 {
			return nil, fmt.Errorf("trace report: malformed line %q", line)
		}
		depth := (len(line) - len(strings.TrimLeft(line, " "))) / 2
		if depth > len(stack) {
			return nil, fmt.Errorf("trace report: line %q skips a level", line)
		}
		name := strings.Join(fields[:len(fields)-3], " ")
		total, err := time.ParseDuration(fields[len(fields)-2])
		if err != nil {
			return nil, fmt.Errorf("trace report: line %q: %w", line, err)
		}
		stack = append(stack[:depth], name)
		totals[strings.Join(stack, "/")] = total.Seconds()
	}
	return totals, nil
}
