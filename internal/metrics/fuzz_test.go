package metrics

import (
	"bytes"
	"strings"
	"testing"
)

// FuzzParseExposition: the parser faces the network (the cluster federator
// feeds it every remote replica's /metrics page). No input may panic it,
// and whatever it accepts must survive its own encoder — WriteFamilies of
// the parsed families, parsed again, renders the same bytes.
func FuzzParseExposition(f *testing.F) {
	var c Collector
	fillCollector(&c, 50)
	page := func(fams []Family) string {
		var buf bytes.Buffer
		WriteFamilies(&buf, fams)
		return buf.String()
	}
	replica := func() []Family {
		return Exposition(c.Scrape(), Gauges{Rejected: 1, Iterations: 9,
			StageBusySeconds: []float64{0.5, 0.25}, KVFreeRate: 0.5, Healthy: true, UptimeSeconds: 3})
	}
	f.Add(page(replica()))
	f.Add(page(MergeFamilies( // a federated page
		AddLabel(replica(), Label{Name: "replica", Value: "r0"}),
		AddLabel(replica(), Label{Name: "replica", Value: "r1"}))))
	f.Add("up +Inf\ndown -Inf\nodd NaN 1712000000\n")
	f.Add(`weird{path="a\\b",msg="say \"hi\"\n"} 4` + "\n")
	f.Add("lat_bucket{le=\"1\"} 1\n# TYPE lat histogram\nlat_sum 2\nlat_count 1\n")

	f.Fuzz(func(t *testing.T, in string) {
		fams, err := ParseExposition(strings.NewReader(in))
		if err != nil {
			return
		}
		first := page(fams)
		again, err := ParseExposition(strings.NewReader(first))
		if err != nil {
			t.Fatalf("own rendering rejected: %v\n%s", err, first)
		}
		if second := page(again); second != first {
			t.Fatalf("not a fixed point:\n--- first ---\n%s--- second ---\n%s", first, second)
		}
	})
}
