package advisor

import (
	"fmt"
	"sort"
	"strings"

	"pdmtune/internal/netsim"
)

// Section is one degradable part of a DiagSnapshot: either its data or
// the reason it is missing. A partially failed diagnosis is still a
// diagnosis — consumers check Available per section instead of losing
// the whole report.
type Section struct {
	Available bool
	Error     string
	Data      map[string]string
}

// DiagSnapshot is the advisor's read product: a point-in-time diagnosis
// of an observed session. Unlike a ChangeSet it changes nothing, may be
// incomplete, and needs no fingerprint — every section stands alone.
type DiagSnapshot struct {
	Sections map[string]Section
}

func failed(reason string) Section { return Section{Error: reason} }

func section(data map[string]string) Section { return Section{Available: true, Data: data} }

// Diagnose assembles the full read-only report for t over window: the
// window's traffic, the distilled profile, and the ranked
// recommendations against t's current configuration. Sections degrade
// independently — an empty window still yields a config section.
func (a Advisor) Diagnose(t Tunable, window netsim.Metrics) *DiagSnapshot {
	o, current := a.observe(t, window), t.TuneConfig()
	d := &DiagSnapshot{Sections: map[string]Section{}}

	d.Sections["config"] = section(map[string]string{
		"current":     current.String(),
		"fingerprint": current.Fingerprint(),
	})

	m := o.Window
	if m.Actions() == 0 {
		d.Sections["window"] = failed("empty observation window: no user actions metered")
		d.Sections["profile"] = failed("empty observation window")
		d.Sections["recommendations"] = failed("nothing observed to rank against")
		return d
	}
	d.Sections["window"] = section(map[string]string{
		"actions":        fmt.Sprint(m.Actions()),
		"reads":          fmt.Sprint(m.ReadActions),
		"writes":         fmt.Sprint(m.WriteActions),
		"repeats":        fmt.Sprint(m.RepeatActions),
		"round_trips":    fmt.Sprint(m.RoundTrips),
		"simulated_sec":  fmt.Sprintf("%.3f", m.TotalSec()),
		"lock_wait_sec":  fmt.Sprintf("%.3f", float64(m.LockWaitNanos)/1e9),
		"cache_hits":     fmt.Sprint(m.CacheHits),
		"write_conflict": fmt.Sprint(m.WriteConflicts),
	})

	w := Classify(o)
	d.Sections["profile"] = section(map[string]string{
		"write_frac":  fmt.Sprintf("%.2f", w.WriteFrac),
		"repeat_frac": fmt.Sprintf("%.2f", w.RepeatFrac),
		"site":        o.Site,
		"coverage":    fmt.Sprintf("%.2f", w.Coverage),
	})

	data := map[string]string{}
	for i, r := range recommend(w, current) {
		data[fmt.Sprintf("rank%d", i+1)] = fmt.Sprintf("%s (predicted %.3fs/action, %+.0f%%)",
			r.Config, r.PredictedSec, r.DeltaPct)
	}
	d.Sections["recommendations"] = section(data)
	return d
}

// String renders the snapshot section by section, missing parts
// included — the degradable contract made visible.
func (d *DiagSnapshot) String() string {
	names := make([]string, 0, len(d.Sections))
	for name := range d.Sections {
		names = append(names, name)
	}
	sort.Strings(names)
	var b strings.Builder
	for _, name := range names {
		s := d.Sections[name]
		if !s.Available {
			fmt.Fprintf(&b, "[%s] unavailable: %s\n", name, s.Error)
			continue
		}
		fmt.Fprintf(&b, "[%s]\n", name)
		keys := make([]string, 0, len(s.Data))
		for k := range s.Data {
			keys = append(keys, k)
		}
		sort.Strings(keys)
		for _, k := range keys {
			fmt.Fprintf(&b, "  %s = %s\n", k, s.Data[k])
		}
	}
	return b.String()
}
