// The fleet subcommand: load an NDJSON fleet file into an in-process
// fleet registry and print the aggregate summary document — or, with
// -peers, gather a running actd cluster's per-member partials and fold
// them client-side.
//
//	act fleet -file fleet.ndjson [-top K] [-by region|node|class] [-shards N]
//	cat fleet.ndjson | act fleet
//	act fleet -peers http://a:8080,http://b:8080,http://c:8080 [-top K] [-by DIM]
//
// The output is the exact byte stream actd serves from
// GET /v1/fleet/summary for the same fleet and query, so offline analysis
// of a fleet file, a live single node, and a client-side cluster fold are
// all interchangeable. The -peers fold is all-or-nothing: if any member is
// unreachable the command fails rather than print a partial document (the
// service's own 206 `partial` answer is the degraded path; a CLI report
// should not silently cover less than the whole fleet).

package main

import (
	"context"
	"flag"
	"fmt"
	"io"
	"net/http"
	"os"
	"strconv"
	"strings"
	"time"

	"act/internal/cluster"
	"act/internal/fleet"
	"act/internal/report"
)

func runFleet(args []string, stdin io.Reader, stdout io.Writer) error {
	fs := flag.NewFlagSet("act fleet", flag.ContinueOnError)
	var (
		file    = fs.String("file", "", "path to an NDJSON fleet file (default: stdin)")
		top     = fs.Int("top", 0, "include the K largest per-device emitters")
		by      = fs.String("by", "", "add per-group rows: region, node or class")
		shards  = shardCountFlag(fs)
		peers   = fs.String("peers", "", "comma-separated actd member URLs: fold a running cluster instead of a local file")
		timeout = fs.Duration("timeout", 30*time.Second, "overall deadline for the -peers gather")
	)
	if err := fs.Parse(args); err != nil {
		return err
	}

	if *peers != "" {
		if *file != "" {
			return fmt.Errorf("act fleet: -file and -peers are mutually exclusive")
		}
		var bases []string
		for _, p := range strings.Split(*peers, ",") {
			if p = strings.TrimSpace(p); p != "" {
				bases = append(bases, p)
			}
		}
		ctx, cancel := context.WithTimeout(context.Background(), *timeout)
		defer cancel()
		partials, err := cluster.FetchPartials(ctx, &http.Client{Timeout: *timeout}, bases, *top, *by)
		if err != nil {
			return err
		}
		doc, err := cluster.Fold(fleet.Query{TopK: *top, GroupBy: *by}, partials)
		if err != nil {
			return err
		}
		return report.Encode(stdout, doc)
	}

	in := stdin
	if *file != "" {
		f, err := os.Open(*file)
		if err != nil {
			return err
		}
		defer f.Close()
		in = f
	}

	reg := fleet.New(fleet.Config{Shards: *shards})
	if _, err := reg.IngestNDJSON(in, 0); err != nil {
		return err
	}
	doc, err := reg.Query(fleet.Query{TopK: *top, GroupBy: *by})
	if err != nil {
		return err
	}
	return report.Encode(stdout, doc)
}

// shardCountFlag defines -shards on fs. A count above fleet.MaxShards is
// refused as a malformed value, usage and all: a registry that large
// would checkpoint snapshots it could never restore.
func shardCountFlag(fs *flag.FlagSet) *int {
	n := new(int)
	fs.Func("shards", "registry shard `count` (0 = default 64)", func(s string) error {
		v, err := strconv.ParseInt(s, 0, strconv.IntSize)
		if err != nil {
			return err.(*strconv.NumError).Err
		}
		if v > fleet.MaxShards {
			return fmt.Errorf("above the maximum of %d shards", fleet.MaxShards)
		}
		*n = int(v)
		return nil
	})
	return n
}
