package experiment

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"path/filepath"
)

// summary is one kind of per-configuration summary a Meter collects.
// block returns its artifact header line (a struct, so the field order
// is fixed) and the body bound when the kernel was summarized.
type summary interface {
	block(experiment string) (header any, body func(io.Writer) error)
}

// ArtifactFile is one file of an artifact directory: its name and the
// function that streams its bytes.
type ArtifactFile struct {
	Name  string
	Write func(io.Writer) error
}

// WriteArtifacts writes the registry artifacts of results into dir,
// creating it if missing: metrics.jsonl, profile.jsonl, latency.jsonl
// and controller.jsonl. Each holds, for every result in registry order
// and every configuration that ran with that observer on, one
// "experiment" header line followed by the run's export. No wall-clock
// value is included, so every file is byte-identical at any -parallel
// level and on either event queue.
func WriteArtifacts(dir string, results []Result) error {
	return WriteDir(dir, []ArtifactFile{
		{"metrics.jsonl", blocks(results, func(m Meter) []MetricSummary { return m.Metrics })},
		{"profile.jsonl", blocks(results, func(m Meter) []AttributionSummary { return m.Attribution })},
		{"latency.jsonl", blocks(results, func(m Meter) []LatencySummary { return m.Latency })},
		{"controller.jsonl", blocks(results, func(m Meter) []ControllerSummary { return m.Controller })},
	})
}

// blocks is the one artifact writer: for every result and every summary
// pick selects from its Meter, the summary's header line, then its body.
func blocks[S summary](results []Result, pick func(Meter) []S) func(io.Writer) error {
	return func(w io.Writer) error {
		enc := json.NewEncoder(w)
		for _, r := range results {
			for _, s := range pick(r.Output.Meter) {
				header, body := s.block(r.Spec.ID)
				if err := enc.Encode(header); err != nil {
					return err
				}
				if err := body(w); err != nil {
					return fmt.Errorf("%s: %w", r.Spec.ID, err)
				}
			}
		}
		return nil
	}
}

// WriteDir creates dir if it is missing and writes each file into it,
// stopping at the first error.
func WriteDir(dir string, files []ArtifactFile) error {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	for _, file := range files {
		path := filepath.Join(dir, file.Name)
		f, err := os.Create(path)
		if err != nil {
			return err
		}
		bw := bufio.NewWriter(f)
		err = file.Write(bw)
		if err == nil {
			err = bw.Flush()
		}
		if cerr := f.Close(); err == nil {
			err = cerr
		}
		if err != nil {
			return fmt.Errorf("writing %s: %w", path, err)
		}
	}
	return nil
}
