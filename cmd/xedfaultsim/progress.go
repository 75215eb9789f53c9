package main

import (
	"fmt"
	"strings"
	"time"

	"xedsim/internal/faultsim"
	"xedsim/internal/obs"
)

// progressLine returns the -progress status line of one campaign, read
// entirely from its metrics registry: trial throughput plus per-scheme
// running failure tallies with 95% Wilson intervals.
func progressLine(reg *obs.Registry, label string, schemes []faultsim.Scheme) func(done, total int) string {
	start := time.Now()
	trials0 := reg.Snapshot().Counters["campaign.trials_done"] // resume credit
	return func(done, total int) string {
		snap := reg.Snapshot()
		trials := snap.Counters["campaign.trials_done"]
		rate := float64(trials-trials0) / time.Since(start).Seconds()

		var b strings.Builder
		fmt.Fprintf(&b, "%s %3d%% %s trials %s/s", label, done*100/max(total, 1), si(float64(trials)), si(rate))
		for _, s := range schemes {
			k := snap.Counters["campaign.scheme."+s.Name()+".failures"]
			lo, hi := faultsim.WilsonInterval(k, trials)
			fmt.Fprintf(&b, " | %s %d [%.2g,%.2g]", s.Name(), k, lo, hi)
		}
		if errs := snap.Counters["campaign.trial_errors"]; errs > 0 {
			fmt.Fprintf(&b, " | voided %d", errs)
		}
		return b.String()
	}
}

// si formats a count with a thousands suffix for the narrow status line.
func si(v float64) string {
	switch {
	case v >= 1e9:
		return fmt.Sprintf("%.2fG", v/1e9)
	case v >= 1e6:
		return fmt.Sprintf("%.2fM", v/1e6)
	case v >= 1e3:
		return fmt.Sprintf("%.1fk", v/1e3)
	default:
		return fmt.Sprintf("%.0f", v)
	}
}
