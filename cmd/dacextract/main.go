// Command dacextract plays the adversary's side of the threat model: given
// only a released model file (produced by dacrelease or any pipeline using
// this repo's training code), it reconstructs the training images embedded
// in the weights. It knows nothing about the training run except what the
// adversary's own algorithm fixed in advance: the layer-group bounds, the
// image geometry, and the domain pixel statistics the pre-processing
// selected for.
//
//	dacextract -model released.bin -out stolen/ [-truth dir]
//
// With -truth (a directory of PGMs written by dacrelease), the extraction
// is also scored against the ground truth.
package main

import (
	"errors"
	"flag"
	"fmt"
	"io"
	"io/fs"
	"os"
	"path/filepath"
	"sort"
	"strings"

	"repro/internal/artifact"
	"repro/internal/attack"
	"repro/internal/core"
	"repro/internal/img"
	"repro/internal/modelio"
	"repro/internal/obs"
)

func main() {
	preset := core.CIFARRelease()
	modelPath := flag.String("model", "released.bin", "released model file")
	outDir := flag.String("out", "stolen", "output directory for reconstructed PGMs")
	truthDir := flag.String("truth", "", "optional ground-truth PGM directory for scoring")
	bounds := flag.String("bounds", preset.BoundsCSV(), "conv-index group bounds (the adversary's own constant)")
	geom := flag.String("geom", preset.GeomString(), "payload image geometry CxHxW")
	mean := flag.Float64("mean", preset.DecodeMean, "domain pixel mean for the moment decode")
	std := flag.Float64("std", preset.DecodeStd, "domain pixel std for the moment decode")
	ascii := flag.Bool("ascii", false, "also print ASCII previews of the first reconstructions")
	audit := flag.Bool("audit", false, "defender mode: run the distributional audit instead of extracting")
	threads := flag.Int("threads", 0, "worker threads for model forward passes (0 = all cores)")
	traceOut := flag.String("trace-out", "", "write a phase-span timing report to this file at exit (\"-\" for stderr)")
	cacheDir := flag.String("cache-dir", "", "persistent artifact store; a repeat extraction of the same model file is served from cache")
	flag.Parse()

	var tracer *obs.Tracer
	if *traceOut != "" {
		obs.Enable(true)
		tracer = obs.NewTracer()
		defer func() {
			if err := tracer.WriteFile(*traceOut); err != nil {
				fmt.Fprintln(os.Stderr, "dacextract: trace-out:", err)
			}
		}()
	}

	var store *artifact.Store
	if *cacheDir != "" {
		var err error
		if store, err = artifact.Open(*cacheDir); err != nil {
			fatal(err)
		}
	}

	sp := tracer.Span("extract/load")
	rm, digest, err := modelio.LoadWithDigest(*modelPath)
	if err != nil {
		fatal(err)
	}
	m, _, err := modelio.Import(rm)
	if err != nil {
		fatal(err)
	}
	m.SetThreads(*threads)
	sp.End()

	gb, err := parseInts(*bounds)
	if err != nil {
		fatal(fmt.Errorf("bad -bounds: %w", err))
	}
	if *audit {
		rep := attack.AuditModel(m, gb, 0)
		fmt.Printf("distributional audit (threshold %.2f):\n", rep.Threshold)
		fmt.Printf("  global weight distribution: %.3f\n", rep.Global)
		for _, g := range rep.PerGroup {
			fmt.Printf("  %-8s %.3f\n", g.Name, g.Score)
		}
		if rep.Suspicious {
			fmt.Println("verdict: SUSPICIOUS — weight distribution is far from benign-Gaussian")
			os.Exit(3)
		}
		fmt.Println("verdict: no distributional anomaly detected")
		return
	}
	var c, h, w int
	if _, err := fmt.Sscanf(*geom, "%dx%dx%d", &c, &h, &w); err != nil {
		fatal(fmt.Errorf("bad -geom: %w", err))
	}
	u := c * h * w

	groups := m.GroupsByConvIndex(gb)
	encodingGroup := groups[len(groups)-1]
	capacity := attack.Capacity(encodingGroup.NumEl, u)
	fmt.Printf("model: %d weights, encoding group %q holds up to %d %dx%dx%d images\n",
		m.NumWeightParams(), encodingGroup.Name, capacity, c, h, w)

	// The extraction is a pure function of the released model bytes and
	// the adversary's own constants, so a repeat run over the same model
	// file can be served from the artifact store.
	var key string
	if store != nil {
		key = artifact.NewKey("extract-cli/v1").
			Str("model", digest).
			Ints("bounds", gb).
			Str("geom", *geom).
			Float("mean", *mean).
			Float("std", *std).
			Sum()
	}
	var recon []*img.Image
	if store != nil {
		rep, err := artifact.Load(store, "report", key, attack.ReadReport)
		switch {
		case err == nil:
			recon = rep.Recon
			fmt.Println("cache: extraction served from store")
		case !errors.Is(err, fs.ErrNotExist):
			fmt.Fprintf(os.Stderr, "dacextract: cached report unusable, re-extracting: %v\n", err)
			store.Delete("report", key)
		}
	}
	if recon == nil {
		// Fabricate a plan describing where the payload lives; the
		// adversary derives this from its own algorithm, not from the
		// training run.
		pg := attack.PlanGroup{GroupIndex: len(groups) - 1}
		for i := 0; i < capacity; i++ {
			pg.Images = append(pg.Images, img.New(c, h, w)) // placeholders for count
		}
		opt := attack.DecodeOptions{TargetMean: *mean, TargetStd: *std}
		sp = tracer.Span("extract/decode")
		recon = attack.DecodeGroup(pg, encodingGroup, [3]int{c, h, w}, opt)
		sp.End()
		if store != nil {
			err := store.Put("report", key, func(w io.Writer) error {
				return attack.WriteReport(w, &attack.Report{Recon: recon})
			})
			if err != nil {
				fmt.Fprintf(os.Stderr, "dacextract: cache write failed: %v\n", err)
			}
		}
	}

	sp = tracer.Span("extract/save")
	if err := os.MkdirAll(*outDir, 0o755); err != nil {
		fatal(err)
	}
	for i, im := range recon {
		path := filepath.Join(*outDir, fmt.Sprintf("stolen_%03d.pgm", i))
		if err := im.Clone().Clamp().SavePNM(path); err != nil {
			fatal(err)
		}
	}
	sp.End()
	fmt.Printf("extracted %d images to %s\n", len(recon), *outDir)

	if *ascii {
		n := 4
		if len(recon) < n {
			n = len(recon)
		}
		fmt.Println(img.SideBySideASCII(clampAll(recon[:n]), 2))
	}

	if *truthDir != "" {
		truth, err := loadPGMs(*truthDir)
		if err != nil {
			fatal(err)
		}
		// The decode polarity heuristic cannot see the originals; score
		// both polarities and report the better one, as a human adversary
		// flipping through the images would.
		score := attack.ScoreReconstructions(truth, recon)
		inverted := make([]*img.Image, len(recon))
		for i, im := range recon {
			inv := im.Clone()
			for p := range inv.Pix {
				inv.Pix[p] = 255 - inv.Pix[p]
			}
			inverted[i] = inv
		}
		if s2 := attack.ScoreReconstructions(truth, inverted); s2.MeanMAPE < score.MeanMAPE {
			score = s2
		}
		fmt.Printf("scored against %d ground-truth images: %s\n", len(truth), score)
	}
}

func parseInts(s string) ([]int, error) {
	var out []int
	for _, part := range strings.Split(s, ",") {
		var v int
		if _, err := fmt.Sscanf(strings.TrimSpace(part), "%d", &v); err != nil {
			return nil, err
		}
		out = append(out, v)
	}
	return out, nil
}

func loadPGMs(dir string) ([]*img.Image, error) {
	entries, err := os.ReadDir(dir)
	if err != nil {
		return nil, err
	}
	var names []string
	for _, e := range entries {
		if strings.HasSuffix(e.Name(), ".pgm") || strings.HasSuffix(e.Name(), ".ppm") {
			names = append(names, e.Name())
		}
	}
	sort.Strings(names)
	var out []*img.Image
	for _, name := range names {
		f, err := os.Open(filepath.Join(dir, name))
		if err != nil {
			return nil, err
		}
		im, err := img.ReadPNM(f)
		f.Close()
		if err != nil {
			return nil, fmt.Errorf("%s: %w", name, err)
		}
		out = append(out, im)
	}
	return out, nil
}

func clampAll(images []*img.Image) []*img.Image {
	out := make([]*img.Image, len(images))
	for i, im := range images {
		out[i] = im.Clone().Clamp()
	}
	return out
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "dacextract:", err)
	os.Exit(1)
}
