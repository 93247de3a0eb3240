package main

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"

	"prefetchsim"
)

// expected.json pins, for the default seed, the stats digest of every
// simulation a run can make: each Figure 6 sweep's simulations and rows,
// and each service-mix client's pool in submission order.
type expected struct {
	Seed    uint64                  `json:"seed"`
	Sweeps  map[string]*sweepExpect `json:"sweeps"`
	Service [][]string              `json:"service"`
}

type sweepExpect struct {
	Rows string            `json:"rows"`
	Sims map[string]string `json:"sims"`
}

func loadExpected(root string) (*expected, error) {
	buf, err := os.ReadFile(filepath.Join(root, "perfbench", "expected.json"))
	if err != nil {
		return nil, err
	}
	var exp expected
	if err := json.Unmarshal(buf, &exp); err != nil {
		return nil, fmt.Errorf("expected.json: %w", err)
	}
	if exp.Seed != defaultSeed || len(exp.Service) != clients {
		return nil, fmt.Errorf("expected.json pins seed %d for %d clients, want seed %d for %d", exp.Seed, len(exp.Service), defaultSeed, clients)
	}
	return &exp, nil
}

// writeExpected regenerates expected.json. Each sweep runs through
// Figure6 and again one simulation at a time through Run, with every
// simulation's ops checked against its program; the two must agree
// before their digests are written.
func writeExpected(path string) error {
	exp := expected{Seed: defaultSeed, Sweeps: map[string]*sweepExpect{}}
	for name, d := range sweeps {
		sr, err := runSweep(d, defaultSeed)
		if err != nil {
			return err
		}
		for _, app := range d.apps {
			want, err := buildOps(app, sweepProcs, defaultSeed)
			if err != nil {
				return err
			}
			for _, s := range sweepSchemes() {
				k := simKey{app, s}
				res, err := prefetchsim.Run(prefetchsim.Config{App: app, Scheme: s, Degree: 1,
					Processors: sweepProcs, Seed: defaultSeed, SLCBytes: d.slcBytes()})
				if err != nil {
					return err
				}
				if err := sameOps(res.Stats, want); err != nil {
					return fmt.Errorf("%s %s: %w", name, k, err)
				}
				if dg := prefetchsim.StatsDigest(res.Stats); dg != sr.digests[k] {
					return fmt.Errorf("%s %s: Run digest %s, Figure6 digest %s", name, k, dg, sr.digests[k])
				}
			}
		}
		exp.Sweeps[name] = expectFrom(sr)
	}
	pools, err := servicePools(defaultSeed, maxSeconds)
	if err != nil {
		return err
	}
	for _, pool := range pools {
		var digests []string
		for _, spec := range pool {
			res, err := prefetchsim.Run(spec.config())
			if err != nil {
				return err
			}
			want, err := buildOps(spec.App, serviceProcs, spec.Seed)
			if err != nil {
				return err
			}
			if err := sameOps(res.Stats, want); err != nil {
				return fmt.Errorf("%s/%s seed %d: %w", spec.App, spec.Scheme, spec.Seed, err)
			}
			digests = append(digests, prefetchsim.StatsDigest(res.Stats))
		}
		exp.Service = append(exp.Service, digests)
	}
	buf, err := json.MarshalIndent(exp, "", " ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(buf, '\n'), 0o644)
}

// sameOps reports whether a run simulated exactly the reads and writes
// each processor's program emits.
func sameOps(st *prefetchsim.Stats, want progOps) error {
	if len(st.Nodes) != len(want.reads) {
		return fmt.Errorf("%d nodes simulated, program has %d streams", len(st.Nodes), len(want.reads))
	}
	for i := range want.reads {
		if n := st.Nodes[i]; n.Reads != want.reads[i] || n.Writes != want.writes[i] {
			return fmt.Errorf("node %d simulated %d reads %d writes, program emits %d and %d",
				i, n.Reads, n.Writes, want.reads[i], want.writes[i])
		}
	}
	return nil
}
