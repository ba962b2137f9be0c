package experiments

import (
	"sort"

	"padll/internal/metrics"
)

// CSVFile is one plot table as padll-experiments -csv writes it: the
// file name, and the figure's series merged column by column on their
// shared time axis.
type CSVFile struct {
	Name    string
	Content string
}

// CSV returns Fig. 1's hourly series.
func (r Fig1Result) CSV() CSVFile {
	return CSVFile{Name: "fig1_hourly.csv", Content: r.Hourly.CSV()}
}

// CSV returns the panel's baseline, padll and limit columns.
func (r Fig4Result) CSV() CSVFile {
	return CSVFile{
		Name:    "fig4_" + r.Name + ".csv",
		Content: metrics.MergeCSV(named("baseline", r.Baseline), named("padll", r.Padll), named("limit", r.Limits)),
	}
}

// CSV returns the setup's aggregate column, then one column per job.
func (r Fig5Result) CSV() CSVFile {
	return CSVFile{Name: "fig5_" + string(r.Setup) + ".csv", Content: jobsCSV(r.Aggregate, r.PerJob)}
}

// CSV returns the replay's aggregate column, then one column per job.
func (r ChaosReplayResult) CSV() CSVFile {
	return CSVFile{Name: "e7_chaos.csv", Content: jobsCSV(r.Aggregate, r.PerJob)}
}

// jobsCSV merges an aggregate series and per-job series, jobs in sorted
// order: map iteration order would shuffle the columns between
// otherwise identical runs.
func jobsCSV(aggregate *metrics.Series, perJob map[string]*metrics.Series) string {
	ids := make([]string, 0, len(perJob))
	for id := range perJob {
		ids = append(ids, id)
	}
	sort.Strings(ids)
	series := []*metrics.Series{named("aggregate", aggregate)}
	for _, id := range ids {
		series = append(series, named(id, perJob[id]))
	}
	return metrics.MergeCSV(series...)
}

// named relabels a series for a CSV header.
func named(name string, s *metrics.Series) *metrics.Series {
	out := metrics.NewSeries(name)
	out.Points = s.Points
	return out
}
