package cache

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"

	"repro/internal/core"
	"repro/internal/logic/network"
	"repro/internal/obs"
)

// FlowArtifact is the serializable outcome of a flow run — the subset of
// core.Result a service client can use, including the optional SiQAD
// design file and run report. Its JSON encoding is what the cache tiers
// store and what a flow response carries: an entry is checked with
// CheckFlowEntry once, when it enters the process from disk, and from
// then on every hit serves the stored bytes unread. The slice a tier
// returns is shared, so it is read-only.
type FlowArtifact struct {
	Name       string          `json:"name"`
	EngineUsed string          `json:"engine_used"`
	Width      int             `json:"width"`
	Height     int             `json:"height"`
	Gates      int             `json:"gates"`
	SiDBs      int             `json:"sidbs"`
	AreaNM2    float64         `json:"area_nm2"`
	SQD        string          `json:"sqd,omitempty"`
	Report     json.RawMessage `json:"report,omitempty"`
	// Degraded reports that deadline pressure forced the exact P&R engine
	// onto the ortho router. Degraded artifacts are never cached: a retry
	// with more budget gets the full-quality result.
	Degraded bool `json:"degraded,omitempty"`
}

// CheckFlowEntry reports whether entry decodes as a FlowArtifact: a JSON
// object the artifact's fields accept. An entry that fails is a miss on a
// disk read.
func CheckFlowEntry(entry []byte) error {
	var art *FlowArtifact
	if err := json.Unmarshal(entry, &art); err != nil {
		return fmt.Errorf("cache: flow entry: %w", err)
	}
	if art == nil {
		return errors.New("cache: flow entry: not a JSON object")
	}
	return nil
}

// RunFlow executes a cold flow run and packages the requested artifacts.
// When withReport is set and no tracer is supplied in opts, a per-run
// tracer is attached so the artifact carries the run's stage report.
func RunFlow(ctx context.Context, spec *network.XAG, opts core.Options, withSQD, withReport bool) (*FlowArtifact, error) {
	if withReport && opts.Tracer == nil {
		opts.Tracer = obs.New()
	}
	res, err := core.RunContext(ctx, spec, opts)
	if err != nil {
		return nil, err
	}
	art := &FlowArtifact{
		Name:       spec.Name,
		EngineUsed: res.EngineUsed,
		Width:      res.Layout.Width(),
		Height:     res.Layout.Height(),
		Gates:      res.Rewritten.NumGates(),
		SiDBs:      res.SiDBs,
		AreaNM2:    res.AreaNM2,
		Degraded:   res.Degraded,
	}
	if withSQD {
		s, err := res.ExportSQD()
		if err != nil {
			return nil, err
		}
		art.SQD = s
	}
	if withReport {
		if rep, err := opts.Tracer.Report(spec.Name).JSON(); err == nil {
			art.Report = rep
		}
	}
	return art, nil
}
