package experiments

import (
	"reflect"
	"strings"
	"testing"
)

// TestTknpRegimesWinsLargestCell is the headline regression: in the
// largest batch x longest context cell of the sweep, the token-parallel
// deployment must beat both TP-16 and PP-16 on decode throughput. This is
// the regime the engine exists for — TP over-shards the 8 KV heads and
// pays 30 ring-step latencies per layer, PP streams every layer's weights
// serially per output token.
func TestTknpRegimesWinsLargestCell(t *testing.T) {
	res, err := TknpRegimesQuick(QuickScale())
	if err != nil {
		t.Fatal(err)
	}
	batch, ctx := TknpBatchesQuick[len(TknpBatchesQuick)-1], TknpCtxsQuick[len(TknpCtxsQuick)-1]
	tknp, ok := res.Row("tknp", batch, ctx)
	if !ok {
		t.Fatalf("no tknp row for B=%d ctx=%d", batch, ctx)
	}
	for _, rival := range []string{"tp", "pp"} {
		row, ok := res.Row(rival, batch, ctx)
		if !ok {
			t.Fatalf("no %s row for B=%d ctx=%d", rival, batch, ctx)
		}
		if tknp.DecodeTput <= row.DecodeTput {
			t.Errorf("B=%d ctx=%d: tknp decode %.1f tok/s not above %s %.1f tok/s",
				batch, ctx, tknp.DecodeTput, rival, row.DecodeTput)
		}
		if tknp.TPOT >= row.TPOT {
			t.Errorf("B=%d ctx=%d: tknp TPOT %.4fs not below %s %.4fs",
				batch, ctx, tknp.TPOT, rival, row.TPOT)
		}
	}
	// Every cell produced all four engines with live output.
	if want := len(TknpBatchesQuick) * len(TknpCtxsQuick) * len(TknpEngines); len(res.Rows) != want {
		t.Fatalf("sweep has %d rows, want %d", len(res.Rows), want)
	}
	for _, row := range res.Rows {
		if row.TPOT <= 0 || row.Throughput <= 0 {
			t.Fatalf("dead cell: %+v", row)
		}
	}
}

// TestTknpRegimesSmallBatchShortContext pins the flip side of the regime
// map: TKNP must NOT dominate everywhere. At the smallest batch and
// shortest context the best engine's margin comes from somewhere else
// (here PP has no scatter/gather and TP's ring is cheap on tiny payloads),
// keeping the sweep an honest trade-off map rather than a victory lap.
func TestTknpRegimesSmallBatchShortContext(t *testing.T) {
	res, err := TknpRegimesQuick(QuickScale())
	if err != nil {
		t.Fatal(err)
	}
	best, ok := res.Best(TknpBatchesQuick[0], TknpCtxsQuick[0])
	if !ok {
		t.Fatal("no rows in smallest cell")
	}
	if best.DecodeTput <= 0 {
		t.Fatalf("smallest cell best engine has no decode throughput: %+v", best)
	}
}

// TestTknpCSVGoldenAcrossWorkerCounts extends the byte-identical-CSV
// determinism guarantee to the TKNP sweep: same grid, same seed, any
// worker count — identical bytes.
func TestTknpCSVGoldenAcrossWorkerCounts(t *testing.T) {
	run := func(workers int) *TknpResult {
		t.Helper()
		sc := QuickScale()
		sc.Workers = workers
		res, err := TknpRegimesQuick(sc)
		if err != nil {
			t.Fatalf("workers=%d: %v", workers, err)
		}
		return res
	}
	base := run(1)
	baseCSV := base.CSV()
	if !strings.HasPrefix(baseCSV, "engine,batch,ctx,output,") {
		t.Fatalf("unexpected CSV header:\n%s", baseCSV)
	}
	if strings.Count(baseCSV, "\n") != 1+len(base.Rows) {
		t.Fatal("CSV row count does not match sweep rows")
	}
	for _, workers := range []int{2, 7} {
		got := run(workers)
		if !reflect.DeepEqual(base, got) {
			t.Errorf("workers=%d: results diverge from workers=1", workers)
		}
		if csv := got.CSV(); csv != baseCSV {
			t.Errorf("workers=%d: CSV bytes diverge:\n--- workers=1\n%s\n--- workers=%d\n%s",
				workers, baseCSV, workers, csv)
		}
	}
	// Repeated run in the same process must also be byte-identical.
	if csv := run(4).CSV(); csv != baseCSV {
		t.Error("repeated run diverged from baseline CSV")
	}
}

func TestTknpRegimesRejectsBadGrids(t *testing.T) {
	if _, err := TknpRegimes(QuickScale(), nil, TknpCtxsQuick, 64); err == nil {
		t.Fatal("empty batch grid accepted")
	}
	if _, err := TknpRegimes(QuickScale(), TknpBatchesQuick, nil, 64); err == nil {
		t.Fatal("empty ctx grid accepted")
	}
	if _, err := TknpRegimes(QuickScale(), TknpBatchesQuick, TknpCtxsQuick, 0); err == nil {
		t.Fatal("zero output length accepted")
	}
}

// Row returns a specific (engine, batch, ctx) cell.
func (r *TknpResult) Row(eng string, batch, ctx int) (TknpRow, bool) {
	for _, row := range r.Rows {
		if row.Engine == eng && row.Batch == batch && row.Ctx == ctx {
			return row, true
		}
	}
	return TknpRow{}, false
}

// Best returns the engine with the highest decode throughput in one cell.
func (r *TknpResult) Best(batch, ctx int) (TknpRow, bool) {
	var best TknpRow
	found := false
	for _, row := range r.Rows {
		if row.Batch != batch || row.Ctx != ctx {
			continue
		}
		if !found || row.DecodeTput > best.DecodeTput {
			best = row
			found = true
		}
	}
	return best, found
}
