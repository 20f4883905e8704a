package metrics

import (
	"bytes"
	"io"
	"math"
	"reflect"
	"sort"
	"strings"
	"testing"
	"time"
)

func fillCollector(c *Collector, n int) {
	for i := 0; i < n; i++ {
		rec := Record{
			ID:           int64(i),
			TTFT:         time.Duration(i%200) * time.Millisecond,
			TPOT:         time.Duration(i%40) * time.Millisecond,
			E2E:          time.Duration(i%5000) * time.Millisecond,
			Queue:        time.Duration(i%90) * time.Millisecond,
			PromptTokens: 100 + i%50,
			OutputTokens: i % 300,
		}
		if i%7 == 0 {
			rec.FinishReason = "cancelled"
		} else {
			rec.FinishReason = "length"
		}
		c.Add(rec)
	}
}

// cumulativeCounts is the rebuild the incremental histograms replaced, kept
// as their oracle: it bins the observations into cumulative bucket counts
// for the given ascending upper bounds, plus a final +Inf bucket ==
// len(observations).
func cumulativeCounts(observations []float64, bounds []float64) []uint64 {
	counts := make([]uint64, len(bounds)+1)
	for _, v := range observations {
		counts[sort.SearchFloat64s(bounds, v)]++ // first bound >= v (le semantics)
	}
	for i := 1; i < len(counts); i++ {
		counts[i] += counts[i-1]
	}
	return counts
}

// TestScrapeMatchesRecordRebuild pins the incremental scrape state to
// the old O(records) rebuild: same reason counts, token totals, and
// cumulative histogram buckets.
func TestScrapeMatchesRecordRebuild(t *testing.T) {
	var c Collector
	fillCollector(&c, 1000)
	sc := c.Scrape()

	records := c.Records()
	byReason := map[string]uint64{}
	var promptTok, outputTok, completedTok int64
	var ttft, tpot, e2e, queue []float64
	for _, r := range records {
		byReason[r.FinishReason]++
		promptTok += int64(r.PromptTokens)
		outputTok += int64(r.OutputTokens)
		queue = append(queue, r.Queue.Seconds())
		if !r.Completed() {
			continue
		}
		completedTok += int64(r.OutputTokens)
		ttft = append(ttft, r.TTFT.Seconds())
		tpot = append(tpot, r.TPOT.Seconds())
		e2e = append(e2e, r.E2E.Seconds())
	}
	if sc.PromptTokens != promptTok || sc.OutputTokens != outputTok {
		t.Fatalf("token totals: scrape %d/%d, rebuild %d/%d",
			sc.PromptTokens, sc.OutputTokens, promptTok, outputTok)
	}
	if sc.CompletedOutputTokens != completedTok || c.Count() != len(records) {
		t.Fatalf("completed output tokens %d (rebuild %d), count %d (rebuild %d)",
			sc.CompletedOutputTokens, completedTok, c.Count(), len(records))
	}
	if len(sc.ByReason) != len(byReason) {
		t.Fatalf("reasons: %v vs %v", sc.ByReason, byReason)
	}
	for k, v := range byReason {
		if sc.ByReason[k] != v {
			t.Fatalf("reason %q: scrape %d, rebuild %d", k, sc.ByReason[k], v)
		}
	}
	check := func(name string, snap HistSnapshot, obs []float64) {
		t.Helper()
		want := cumulativeCounts(obs, DefaultLatencyBuckets)
		got := snap.Cumulative()
		if len(got) != len(want) {
			t.Fatalf("%s: %d buckets, want %d", name, len(got), len(want))
		}
		for i := range want {
			if got[i] != want[i] {
				t.Fatalf("%s bucket %d: scrape %d, rebuild %d", name, i, got[i], want[i])
			}
		}
		var sum float64
		for _, v := range obs {
			sum += v
		}
		if math.Abs(snap.Sum-sum) > 1e-9 || snap.Count != uint64(len(obs)) {
			t.Fatalf("%s: sum/count %v/%d, want %v/%d", name, snap.Sum, snap.Count, sum, len(obs))
		}
	}
	check("ttft", sc.TTFT, ttft)
	check("tpot", sc.TPOT, tpot)
	check("e2e", sc.E2E, e2e)
	check("queue", sc.Queue, queue)
}

func TestScrapeMerge(t *testing.T) {
	var a, b Collector
	fillCollector(&a, 100)
	fillCollector(&b, 50)
	merged := a.Scrape()
	merged.Merge(b.Scrape())

	var both Collector
	fillCollector(&both, 100)
	fillCollector(&both, 50)
	want := both.Scrape()
	if merged.PromptTokens != want.PromptTokens || merged.Queue.Count != want.Queue.Count ||
		merged.CompletedOutputTokens != want.CompletedOutputTokens {
		t.Fatalf("merged scrape %+v != combined %+v", merged, want)
	}
	for i := range want.TTFT.Counts {
		if merged.TTFT.Counts[i] != want.TTFT.Counts[i] {
			t.Fatalf("ttft bucket %d: merged %d, combined %d", i, merged.TTFT.Counts[i], want.TTFT.Counts[i])
		}
	}
}

// TestLiveAddAllocatesNothing states the live path's memory bound as a
// test: a Live fed the same records scrapes exactly like a Collector, and
// once every finish reason has been seen Add allocates nothing — so what a
// serving replica holds does not grow with the requests it has served.
func TestLiveAddAllocatesNothing(t *testing.T) {
	var c Collector
	fillCollector(&c, 1000)
	var l Live
	for _, rec := range c.Records() {
		l.Add(rec)
	}
	if got, want := l.Scrape(), c.Scrape(); !reflect.DeepEqual(got, want) {
		t.Fatalf("live scrape %+v != collector scrape %+v", got, want)
	}
	if l.Count() != c.Count() || !reflect.DeepEqual(l.ByReason(), c.ByReason()) {
		t.Fatalf("live count/reasons %d %v, collector %d %v", l.Count(), l.ByReason(), c.Count(), c.ByReason())
	}
	recs := c.Records()[:14] // both finish reasons
	if n := testing.AllocsPerRun(100, func() {
		for _, rec := range recs {
			l.Add(rec)
		}
	}); n != 0 {
		t.Fatalf("Live.Add allocates %v objects per %d records, want 0", n, len(recs))
	}
}

func TestParseExpositionRoundTrip(t *testing.T) {
	var c Collector
	fillCollector(&c, 500)
	fams := Exposition(c.Scrape(), Gauges{
		Rejected:         7,
		Iterations:       1234,
		StageBusySeconds: []float64{1.5, 2.25},
		BubbleRate:       0.125,
		KVFreeRate:       0.5,
		Resident:         3,
		Healthy:          true,
		UptimeSeconds:    60,
	})

	var buf bytes.Buffer
	WriteFamilies(&buf, fams)
	text := buf.String()
	parsed, err := ParseExposition(strings.NewReader(text))
	if err != nil {
		t.Fatalf("ParseExposition: %v\n%s", err, text)
	}
	if len(parsed) != len(fams) {
		t.Fatalf("parsed %d families, wrote %d", len(parsed), len(fams))
	}
	var buf2 bytes.Buffer
	WriteFamilies(&buf2, parsed)
	if buf2.String() != text {
		t.Fatalf("round trip not byte-identical:\n--- wrote ---\n%s\n--- reparsed ---\n%s", text, buf2.String())
	}
}

func TestParseExpositionEscapesAndSuffixes(t *testing.T) {
	in := `# HELP weird A label with "quotes" and \ backslash.
# TYPE weird counter
weird{path="a\\b",msg="say \"hi\"\n"} 4
# TYPE lat histogram
lat_bucket{le="0.1"} 1
lat_bucket{le="+Inf"} 2
lat_sum 0.3
lat_count 2
stray_sum 9
`
	fams, err := ParseExposition(strings.NewReader(in))
	if err != nil {
		t.Fatal(err)
	}
	byName := map[string]Family{}
	for _, f := range fams {
		byName[f.Name] = f
	}
	w := byName["weird"]
	if len(w.Samples) != 1 || w.Samples[0].Labels[0].Value != `a\b` ||
		w.Samples[0].Labels[1].Value != "say \"hi\"\n" {
		t.Fatalf("weird family = %+v", w)
	}
	if got := len(byName["lat"].Samples); got != 4 {
		t.Fatalf("lat histogram has %d samples, want 4 (buckets+sum+count)", got)
	}
	// stray_sum has no declared base family: it stays its own family.
	if _, ok := byName["stray_sum"]; !ok {
		t.Fatalf("stray_sum not kept as its own family: %+v", fams)
	}
	// What WriteFamilies could not render back to the same families is
	// refused: names outside the exposition grammar, and a TYPE that
	// arrives after suffix samples were attached under the previous one.
	for _, bad := range []string{
		"0\f 0\n",
		"# TYPE a{b gauge\n",
		"x{a b=\"1\"} 1\n",
		"# TYPE lat histogram\nlat_sum 1\n# TYPE lat gauge\n",
	} {
		if _, err := ParseExposition(strings.NewReader(bad)); err == nil {
			t.Errorf("ParseExposition(%q) accepted", bad)
		}
	}
}

func TestAddLabelAndMergeFamilies(t *testing.T) {
	a := []Family{CounterFamily("x_total", "X.", 1)}
	b := []Family{CounterFamily("x_total", "X.", 2)}
	AddLabel(a, Label{Name: "replica", Value: "r0"})
	AddLabel(b, Label{Name: "replica", Value: "r1"})
	merged := MergeFamilies(a, b)
	if len(merged) != 1 || len(merged[0].Samples) != 2 {
		t.Fatalf("merged = %+v", merged)
	}
	if merged[0].Samples[0].Labels[0].Value != "r0" || merged[0].Samples[1].Labels[0].Value != "r1" {
		t.Fatalf("labels lost: %+v", merged[0].Samples)
	}
}

// scrapeOnce is the full /metrics hot path: snapshot + families + render.
func scrapeOnce(c *Collector, w io.Writer) {
	WriteFamilies(w, Exposition(c.Scrape(), Gauges{StageBusySeconds: []float64{1, 2}}))
}

// TestScrapeAllocsIndependentOfRecords guards the satellite fix: the
// per-scrape allocation count must not grow with the record count.
func TestScrapeAllocsIndependentOfRecords(t *testing.T) {
	measure := func(n int) float64 {
		var c Collector
		fillCollector(&c, n)
		var buf bytes.Buffer
		return testing.AllocsPerRun(20, func() {
			buf.Reset()
			scrapeOnce(&c, &buf)
		})
	}
	small, large := measure(100), measure(20000)
	if large > small*1.1+8 {
		t.Fatalf("scrape allocs grew with records: %v at 100 records, %v at 20000", small, large)
	}
}
