package lint

import "strconv"

// randxPkg is the only package allowed to touch the runtime's
// randomness sources directly.
const randxPkg = "sqm/internal/randx"

// rawRandImports are the randomness packages that bypass the seeded
// samplers.
var rawRandImports = map[string]bool{
	"math/rand":    true,
	"math/rand/v2": true,
	"crypto/rand":  true,
}

// AnalyzerRandDet enforces reproducibility of the Skellam/Poisson
// draws (paper §II, Algorithm 2): every random bit must flow through
// the seeded, splittable samplers in internal/randx, so a run is a
// pure function of its seed. Importing math/rand, math/rand/v2 or
// crypto/rand anywhere else would reintroduce nondeterminism (or, for
// crypto/rand, unseedable entropy) that the replay and audit tooling
// cannot reproduce.
var AnalyzerRandDet = &Analyzer{
	Name: "randdet",
	Doc:  "randomness outside internal/randx: math/rand, math/rand/v2 and crypto/rand may only be imported by the seeded sampler package",
	Run:  runRandDet,
}

func runRandDet(pass *Pass) {
	if pass.PkgPath == randxPkg {
		return
	}
	for _, f := range pass.Files {
		for _, imp := range f.Imports {
			path, err := strconv.Unquote(imp.Path.Value)
			if err != nil || !rawRandImports[path] {
				continue
			}
			pass.Reportf(imp.Pos(), "import of %q outside internal/randx breaks seeded determinism; draw through randx.RNG instead", path)
		}
	}
}
