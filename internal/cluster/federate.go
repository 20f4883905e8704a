// Metrics federation: the cluster frontend's /metrics page as the union
// of every replica's exposition — each series labeled {replica="id"} —
// plus router-level series (retries by reason, backoff sleeps, pick
// distribution, probe transitions, drain/replace events). One Prometheus
// scrape of the frontend then answers "which replica is slow" without
// scraping N servers.
//
// In-process replicas expose their families directly from their scrape
// state (no text round-trip); remote replicas are scraped over HTTP and
// re-parsed, so the federated page reflects the remote server's own
// authoritative view (stage busy time, queue delays the transport cannot
// observe). An unreachable remote contributes only gllm_replica_up 0 —
// federation degrades per replica, never wholesale.
package cluster

import (
	"context"
	"log/slog"
	"sort"
	"strconv"

	"gllm/internal/metrics"
	"gllm/internal/obs"
)

// FamilyScraper is the optional Engine extension for replicas that serve
// their own Prometheus page (remote transports). Engines without it get
// their families built locally from Metrics().Scrape() and Stats().
type FamilyScraper interface {
	ScrapeFamilies(ctx context.Context) ([]metrics.Family, error)
}

// replicaFamilies renders one replica's exposition: the remote's own
// /metrics page when the engine scrapes one, the local scrape state
// otherwise. The error return is nil for local replicas.
func replicaFamilies(ctx context.Context, rep *Replica) ([]metrics.Family, error) {
	if fs, ok := rep.eng.(FamilyScraper); ok {
		return fs.ScrapeFamilies(ctx)
	}
	return metrics.Exposition(rep.eng.Metrics().Scrape(), rep.eng.Stats().Gauges()), nil
}

// RouterFamilies renders the router-level series from a stats snapshot.
func RouterFamilies(rs RouterStats) []metrics.Family {
	retries := metrics.Family{Name: "gllm_router_retries_total",
		Help: "Retried submission attempts by reason.", Type: "counter"}
	for _, reason := range sortedKeys(rs.ByReason) {
		retries.Samples = append(retries.Samples, metrics.Sample{
			Name:   "gllm_router_retries_total",
			Labels: []metrics.Label{{Name: "reason", Value: reason}},
			Value:  float64(rs.ByReason[reason]),
		})
	}
	picks := metrics.Family{Name: "gllm_router_picks_total",
		Help: "Accepted submissions by routing policy and replica.", Type: "counter"}
	for _, id := range sortedKeys(rs.Picks) {
		picks.Samples = append(picks.Samples, metrics.Sample{
			Name: "gllm_router_picks_total",
			Labels: []metrics.Label{
				{Name: "policy", Value: rs.Policy},
				{Name: "replica", Value: id},
			},
			Value: float64(rs.Picks[id]),
		})
	}
	fams := []metrics.Family{
		retries,
		metrics.CounterFamily("gllm_router_gave_up_total",
			"Submissions that exhausted the retry budget.", float64(rs.GaveUp)),
		picks,
		metrics.HistogramFamily("gllm_router_backoff_seconds",
			"Backoff sleeps between routing attempts.", rs.Backoff),
		metrics.CounterFamily("gllm_router_drains_total",
			"Replica drain events.", float64(rs.Drains)),
		metrics.CounterFamily("gllm_router_replaces_total",
			"Replica replace events.", float64(rs.Replaces)),
	}
	if len(rs.Probes) > 0 {
		failures := metrics.Family{Name: "gllm_router_probe_consecutive_failures",
			Help: "Consecutive health-probe failures per remote replica.", Type: "gauge"}
		trips := metrics.Family{Name: "gllm_router_probe_trips_total",
			Help: "Transitions to unreachable per remote replica.", Type: "counter"}
		recoveries := metrics.Family{Name: "gllm_router_probe_recoveries_total",
			Help: "Recoveries from unreachable per remote replica.", Type: "counter"}
		for _, id := range sortedKeys(rs.Probes) {
			ps := rs.Probes[id]
			label := []metrics.Label{{Name: "replica", Value: id}}
			failures.Samples = append(failures.Samples, metrics.Sample{
				Name: failures.Name, Labels: label, Value: float64(ps.ConsecutiveFailures)})
			trips.Samples = append(trips.Samples, metrics.Sample{
				Name: trips.Name, Labels: label, Value: float64(ps.Trips)})
			recoveries.Samples = append(recoveries.Samples, metrics.Sample{
				Name: recoveries.Name, Labels: label, Value: float64(ps.Recoveries)})
		}
		fams = append(fams, failures, trips, recoveries)
	}
	return fams
}

// sortedKeys returns a map's keys in sorted order, so federated series
// render deterministically scrape over scrape.
func sortedKeys[V any](m map[string]V) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}

// TraceExporter is the optional Engine extension for replicas that serve
// their own request-span export (remote transports; see /tracespans).
// In-process replicas record into the router's shared recorder instead.
type TraceExporter interface {
	TraceExport(ctx context.Context) (obs.ReqExport, error)
}

// TraceExports collects span exports from every replica engine (active
// and retired) that serves one. Unreachable or empty replicas are
// skipped, and so is (logged) an export holding a span the trace writer
// would refuse — a merged trace degrades per replica, never wholesale.
func (c *Router) TraceExports(ctx context.Context) []obs.ReqExport {
	var out []obs.ReqExport
	for _, rep := range append(c.Replicas(), c.Retired()...) {
		te, ok := rep.eng.(TraceExporter)
		if !ok {
			continue
		}
		exp, err := te.TraceExport(ctx)
		if err != nil || len(exp.Spans) == 0 {
			continue
		}
		if err := exp.Check(); err != nil {
			c.logEvent(slog.LevelWarn, "trace export refused", "replica", rep.ID, "err", err)
			continue
		}
		out = append(out, exp)
	}
	return out
}

// Federate assembles the cluster-wide exposition: every replica's
// families (active and retired, so counters stay monotone across drains)
// labeled with its ID, an up/down gauge per replica, and the router-level
// series. Replicas whose scrape fails contribute gllm_replica_up 0.
func (c *Router) Federate(ctx context.Context) []metrics.Family {
	up := metrics.Family{Name: "gllm_replica_up",
		Help: "1 if the replica's exposition was collected this scrape.", Type: "gauge"}
	var groups [][]metrics.Family
	for _, rep := range append(c.Replicas(), c.Retired()...) {
		fams, err := replicaFamilies(ctx, rep)
		val := 1.0
		if err != nil {
			val = 0
		} else {
			groups = append(groups, metrics.AddLabel(fams, metrics.Label{Name: "replica", Value: rep.ID}))
		}
		up.Samples = append(up.Samples, metrics.Sample{
			Name:   up.Name,
			Labels: []metrics.Label{{Name: "replica", Value: rep.ID}, {Name: "draining", Value: strconv.FormatBool(rep.Draining())}},
			Value:  val,
		})
	}
	groups = append(groups, []metrics.Family{up}, RouterFamilies(c.RouterStats()))
	return metrics.MergeFamilies(groups...)
}
