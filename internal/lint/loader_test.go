package lint

import (
	"go/types"
	"runtime"
	"strings"
	"testing"
)

func TestLoaderHandlesGenerics(t *testing.T) {
	pkg, res := loadFixture(t, "generics", "fixture/generics")
	if pkg.Pkg.Scope().Lookup("Map") == nil {
		t.Error("generic function Map missing from package scope")
	}
	if got := len(res.Diagnostics) + len(res.Suppressed); got != 0 {
		t.Errorf("generic fixture should be clean, got %d finding(s): %v", got, res.Diagnostics)
	}
}

func TestLoaderFiltersBuildTaggedFiles(t *testing.T) {
	if runtime.GOOS == "windows" {
		t.Skip("the fixture's _windows.go variant collides with on_gc.go on windows")
	}
	loader, err := sharedLoader()
	if err != nil {
		t.Fatal(err)
	}
	pkg, err := loader.LoadDir("testdata/src/buildtags", "fixture/buildtags")
	if err != nil {
		t.Fatalf("LoadDir: %v", err)
	}
	// buildtags.go plus on_gc.go survive; off_never.go falls to its
	// //go:build line, and off_windows.go, off_sparc64.go and off_zos.go
	// to their file name suffixes. Any filtering failure would also fail
	// type-checking outright, since every variant redeclares `marker`.
	if len(pkg.Files) != 2 {
		t.Fatalf("loaded %d files, want 2 (common + gc variant)", len(pkg.Files))
	}
	obj := pkg.Pkg.Scope().Lookup("marker")
	c, ok := obj.(*types.Const)
	if !ok {
		t.Fatalf("marker = %v, want a constant", obj)
	}
	if got := c.Val().String(); got != `"gc"` {
		t.Errorf("marker = %s, want \"gc\" (the //go:build gc variant)", got)
	}
}

func TestLoaderReportsBrokenPackage(t *testing.T) {
	loader, err := sharedLoader()
	if err != nil {
		t.Fatal(err)
	}
	_, err = loader.LoadDir("testdata/src/broken", "fixture/broken")
	if err == nil {
		t.Fatal("broken package must fail to load, got nil error")
	}
	msg := err.Error()
	if !strings.Contains(msg, "type-checking") {
		t.Errorf("error does not identify the type-check phase:\n%s", msg)
	}
	// The fixture plants three independent errors; seeing more than one
	// in the message proves the collector kept going past the first.
	for _, frag := range []string{"missingIdent", "too many arguments"} {
		if !strings.Contains(msg, frag) {
			t.Errorf("error does not mention %q (multi-error collection broken):\n%s", frag, msg)
		}
	}
}
