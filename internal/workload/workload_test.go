package workload

import (
	"bytes"
	"math"
	"slices"
	"sort"
	"strings"
	"testing"
	"testing/quick"
	"time"

	"gllm/internal/stats"
)

func TestDatasetSampleBounds(t *testing.T) {
	r := stats.NewRNG(1)
	for _, d := range []Dataset{ShareGPT, Azure} {
		for i := 0; i < 5000; i++ {
			in, out := d.Sample(r)
			if in < d.InMin || in > d.InMax {
				t.Fatalf("%s input %d out of [%d,%d]", d.Name, in, d.InMin, d.InMax)
			}
			if out < d.OutMin || out > d.OutMax {
				t.Fatalf("%s output %d out of [%d,%d]", d.Name, out, d.OutMin, d.OutMax)
			}
		}
	}
}

func TestAzureToShareGPTRatiosMatchPaper(t *testing.T) {
	// Paper Figure 11: Azure has 5.21x mean input and 1.66x mean output of
	// ShareGPT. Allow generous tolerance — the claim is the shape.
	means := func(d Dataset) (in, out float64) {
		const n = 40000
		r := stats.NewRNG(42)
		for range n {
			p, o := d.Sample(r)
			in += float64(p)
			out += float64(o)
		}
		return in / n, out / n
	}
	sIn, sOut := means(ShareGPT)
	aIn, aOut := means(Azure)
	inRatio := aIn / sIn
	outRatio := aOut / sOut
	if inRatio < 4.2 || inRatio > 6.2 {
		t.Fatalf("input ratio = %.2f (azure %.0f / sharegpt %.0f), want ~5.21", inRatio, aIn, sIn)
	}
	if outRatio < 1.3 || outRatio > 2.0 {
		t.Fatalf("output ratio = %.2f (azure %.0f / sharegpt %.0f), want ~1.66", outRatio, aOut, sOut)
	}
}

func TestByName(t *testing.T) {
	d, err := ByName("azure")
	if err != nil || d.Name != "azure" {
		t.Fatalf("ByName(azure) = %v, %v", d, err)
	}
	if _, err := ByName("pile"); err == nil {
		t.Fatal("unknown dataset did not error")
	}
}

func TestPoissonRateApproximation(t *testing.T) {
	r := stats.NewRNG(7)
	const rate = 10.0
	window := 128 * time.Second
	items := Poisson(r, ShareGPT, rate, window)
	got := float64(len(items))
	want := rate * window.Seconds()
	if math.Abs(got-want)/want > 0.15 {
		t.Fatalf("Poisson produced %v requests, want ~%v", got, want)
	}
	if err := Validate(items); err != nil {
		t.Fatal(err)
	}
	if items[len(items)-1].Arrival >= window {
		t.Fatal("arrival beyond window")
	}
}

func TestPoissonDeterministic(t *testing.T) {
	a := Poisson(stats.NewRNG(3), Azure, 2, 30*time.Second)
	b := Poisson(stats.NewRNG(3), Azure, 2, 30*time.Second)
	if len(a) != len(b) {
		t.Fatalf("lengths differ: %d vs %d", len(a), len(b))
	}
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("item %d differs", i)
		}
	}
}

func TestPoissonPanics(t *testing.T) {
	for _, fn := range []func(){
		func() { Poisson(stats.NewRNG(1), ShareGPT, 0, time.Second) },
		func() { Poisson(stats.NewRNG(1), ShareGPT, 1, 0) },
		func() { Burst(stats.NewRNG(1), ShareGPT, 0, 0) },
		func() { Uniform(0, 1, 1, 0) },
		func() { Uniform(1, 0, 1, 0) },
		func() { Uniform(1, 1, 0, 0) },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Error("expected panic")
				}
			}()
			fn()
		}()
	}
}

func TestBurst(t *testing.T) {
	items := Burst(stats.NewRNG(5), ShareGPT, 32, 3*time.Second)
	if len(items) != 32 {
		t.Fatalf("burst size = %d", len(items))
	}
	for _, it := range items {
		if it.Arrival != 3*time.Second {
			t.Fatalf("burst arrival = %v", it.Arrival)
		}
	}
	if err := Validate(items); err != nil {
		t.Fatal(err)
	}
}

func TestUniform(t *testing.T) {
	items := Uniform(3, 100, 10, time.Second)
	if items[2].Arrival != 2*time.Second {
		t.Fatalf("arrival = %v", items[2].Arrival)
	}
	if TotalTokens(items) != 3*110 {
		t.Fatalf("total tokens = %d", TotalTokens(items))
	}
}

func TestValidateCatchesBadTraces(t *testing.T) {
	bad := [][]Item{
		{{Arrival: 0, PromptLen: 0, OutputLen: 1}},
		{{Arrival: 0, PromptLen: 1, OutputLen: 0}},
		{{Arrival: -1, PromptLen: 1, OutputLen: 1}},
		{{Arrival: time.Second, PromptLen: 1, OutputLen: 1}, {Arrival: 0, PromptLen: 1, OutputLen: 1}},
	}
	for i, items := range bad {
		if err := Validate(items); err == nil {
			t.Errorf("case %d validated", i)
		}
	}
	if err := Validate(nil); err != nil {
		t.Errorf("empty trace should validate: %v", err)
	}
}

func TestSortStable(t *testing.T) {
	items := []Item{
		{Arrival: 2 * time.Second, PromptLen: 1, OutputLen: 1},
		{Arrival: time.Second, PromptLen: 2, OutputLen: 1},
		{Arrival: time.Second, PromptLen: 3, OutputLen: 1},
	}
	Sort(items)
	if items[0].PromptLen != 2 || items[1].PromptLen != 3 || items[2].PromptLen != 1 {
		t.Fatalf("sort wrong: %+v", items)
	}
}

// A stable sort has one answer: Sort must give sort.SliceStable's on traces
// where many items share an arrival.
func TestSortMatchesSliceStable(t *testing.T) {
	for seed := uint64(1); seed <= 20; seed++ {
		rng := stats.NewRNG(seed)
		items := make([]Item, 500+rng.Intn(500))
		for i := range items {
			// ~25 distinct arrivals; PromptLen tells tied items apart.
			items[i] = Item{Arrival: time.Duration(rng.Intn(25)) * time.Second, PromptLen: i + 1, OutputLen: 1}
		}
		want := slices.Clone(items)
		sort.SliceStable(want, func(i, j int) bool { return want[i].Arrival < want[j].Arrival })
		Sort(items)
		if !slices.Equal(items, want) {
			t.Fatalf("seed %d: Sort differs from sort.SliceStable", seed)
		}
	}
}

func TestSummarize(t *testing.T) {
	items := []Item{
		{PromptLen: 100, OutputLen: 10},
		{PromptLen: 300, OutputLen: 30},
	}
	s := Summarize(items)
	if s.Requests != 2 || s.Input.Mean != 200 || s.Output.Mean != 20 {
		t.Fatalf("summary = %+v", s)
	}
}

func TestLoadAzureCSV(t *testing.T) {
	csv := "TIMESTAMP,ContextTokens,GeneratedTokens\n" +
		"100.0,500,20\n" +
		"100.5,1000,50\n" +
		"101.0,0,10\n" + // skipped: zero context
		"102.0,800,0\n" + // skipped: zero output
		"103.25,200,5\n"
	items, err := LoadAzureCSV(strings.NewReader(csv))
	if err != nil {
		t.Fatal(err)
	}
	if len(items) != 3 {
		t.Fatalf("items = %d", len(items))
	}
	if items[0].Arrival != 0 {
		t.Fatalf("first arrival not re-based: %v", items[0].Arrival)
	}
	if items[1].Arrival != 500*time.Millisecond {
		t.Fatalf("second arrival = %v", items[1].Arrival)
	}
	if items[2].Arrival != 3250*time.Millisecond {
		t.Fatalf("third arrival = %v", items[2].Arrival)
	}
	if items[1].PromptLen != 1000 || items[1].OutputLen != 50 {
		t.Fatalf("lengths = %+v", items[1])
	}
}

func TestLoadAzureCSVNoHeader(t *testing.T) {
	items, err := LoadAzureCSV(strings.NewReader("0.0,10,5\n1.0,20,8\n"))
	if err != nil {
		t.Fatal(err)
	}
	if len(items) != 2 || items[1].PromptLen != 20 {
		t.Fatalf("items = %+v", items)
	}
}

func TestLoadAzureCSVErrors(t *testing.T) {
	cases := []string{
		"",
		"1.0,abc,5\n",
		"abc,1,2\nxyz,1,2\n", // header then bad timestamp row
		"1.0,5\n",
	}
	for i, c := range cases {
		if _, err := LoadAzureCSV(strings.NewReader(c)); err == nil {
			t.Errorf("case %d parsed", i)
		}
	}
}

func TestJSONRoundTrip(t *testing.T) {
	items := Poisson(stats.NewRNG(9), ShareGPT, 5, 10*time.Second)
	var buf bytes.Buffer
	if err := WriteJSON(&buf, items); err != nil {
		t.Fatal(err)
	}
	got, err := LoadJSON(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != len(items) {
		t.Fatalf("round trip lost items: %d vs %d", len(got), len(items))
	}
	for i := range got {
		if got[i].PromptLen != items[i].PromptLen || got[i].OutputLen != items[i].OutputLen {
			t.Fatalf("item %d lengths changed", i)
		}
		if diff := got[i].Arrival - items[i].Arrival; diff < -time.Microsecond || diff > time.Microsecond {
			t.Fatalf("item %d arrival drifted %v", i, diff)
		}
	}
}

func TestLoadJSONErrors(t *testing.T) {
	if _, err := LoadJSON(strings.NewReader("{")); err == nil {
		t.Fatal("bad json parsed")
	}
	if _, err := LoadJSON(strings.NewReader(`[{"arrival_sec":0,"prompt_len":0,"output_len":5}]`)); err == nil {
		t.Fatal("zero prompt accepted")
	}
}

func TestQuickGeneratedTracesAlwaysValid(t *testing.T) {
	f := func(seed uint64, rateRaw uint8) bool {
		rate := float64(rateRaw%20) + 0.5
		items := Poisson(stats.NewRNG(seed), Azure, rate, 20*time.Second)
		return Validate(items) == nil
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}
