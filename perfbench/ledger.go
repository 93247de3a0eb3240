package main

import (
	"bytes"
	"fmt"
	"os/exec"
	"strconv"
	"strings"
)

// ledger groups a CPU profile's flat samples by package into the
// cpuLayers buckets and returns each bucket's share of all samples.
// It reads the profile with the toolchain's offline `go tool pprof`.
// mainLayer names the bucket of the profiled binary's main package.
func ledger(profile, mainLayer string) (map[string]float64, error) {
	cmd := exec.Command("go", "tool", "pprof", "-top", "-unit=ms",
		"-nodecount=1000000", "-nodefraction=0", "-edgefraction=0", profile)
	var stderr bytes.Buffer
	cmd.Stderr = &stderr
	out, err := cmd.Output()
	if err != nil {
		return nil, fmt.Errorf("go tool pprof %s: %v: %s", profile, err, bytes.TrimSpace(stderr.Bytes()))
	}
	ms := map[string]float64{}
	var total float64
	inTable := false
	for _, line := range strings.Split(string(out), "\n") {
		f := strings.Fields(line)
		if !inTable {
			inTable = len(f) >= 5 && f[0] == "flat" && f[1] == "flat%"
			continue
		}
		if len(f) < 6 {
			continue
		}
		v, err := strconv.ParseFloat(strings.TrimSuffix(f[0], "ms"), 64)
		if err != nil {
			return nil, fmt.Errorf("pprof line %q: %v", line, err)
		}
		fn := strings.TrimSuffix(strings.Join(f[5:], " "), " (inline)")
		ms[layerOf(pkgOf(fn), mainLayer)] += v
		total += v
	}
	if total == 0 {
		return nil, fmt.Errorf("profile %s holds no samples", profile)
	}
	shares := map[string]float64{}
	for l, v := range ms {
		shares[l] = v / total
	}
	return shares, nil
}

// pkgOf extracts the import path from a symbol such as
// "prefetchsim/internal/blockmap.(*Table[...]).Get".
func pkgOf(fn string) string {
	s := fn
	if i := strings.IndexAny(s, "(["); i >= 0 {
		s = s[:i]
	}
	slash := strings.LastIndexByte(s, '/')
	if dot := strings.IndexByte(s[slash+1:], '.'); dot >= 0 {
		return s[:slash+1+dot]
	}
	return s
}

// layerOf maps an import path to its ledger bucket. memsys (a node's
// memory module) sits with the directory in coherence; mem (address
// layout) sits with the apps that allocate through it; stats and
// analysis sit with obs.
func layerOf(pkg, mainLayer string) string {
	if pkg == "main" {
		return mainLayer
	}
	if rest, ok := strings.CutPrefix(pkg, "prefetchsim/internal/"); ok {
		top, _, _ := strings.Cut(rest, "/")
		switch top {
		case "sim", "blockmap", "machine", "cache", "coherence", "network", "prefetch",
			"apps", "trace", "obs", "runner", "resultcache":
			return top
		case "memsys":
			return "coherence"
		case "mem":
			return "apps"
		case "stats", "analysis":
			return "obs"
		case "webstatus":
			return "prefetchd"
		}
		return "other"
	}
	top, _, _ := strings.Cut(pkg, "/")
	switch top {
	case "runtime", "sync", "time", "internal":
		if top != "internal" || strings.HasPrefix(pkg, "internal/runtime") || strings.HasPrefix(pkg, "internal/sync") {
			return "runtime"
		}
		if strings.HasPrefix(pkg, "internal/poll") || strings.HasPrefix(pkg, "internal/syscall") {
			return "io"
		}
		if strings.HasPrefix(pkg, "internal/bytealg") || strings.HasPrefix(pkg, "internal/fmtsort") {
			return "encoding"
		}
		return "other"
	case "encoding", "fmt", "strconv", "reflect", "unicode", "crypto", "hash", "bytes", "strings":
		return "encoding"
	case "net", "syscall", "os", "io", "bufio":
		return "io"
	}
	return "other"
}
