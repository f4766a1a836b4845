package main

import (
	"bytes"
	"strings"
	"testing"

	"sqm/internal/lint"
)

func TestListPrintsEveryCheck(t *testing.T) {
	var out, errb bytes.Buffer
	if code := run([]string{"-list"}, &out, &errb); code != 0 {
		t.Fatalf("-list exit code = %d, stderr: %s", code, errb.String())
	}
	for _, a := range lint.All() {
		if !strings.Contains(out.String(), a.Name) || !strings.Contains(out.String(), a.Doc) {
			t.Errorf("-list output missing %q:\n%s", a.Name, out.String())
		}
	}
	lines := strings.Split(strings.TrimSpace(out.String()), "\n")
	if len(lines) != len(lint.All()) {
		t.Errorf("-list printed %d lines, want %d", len(lines), len(lint.All()))
	}
}

func TestUnknownFormatIsUsageError(t *testing.T) {
	var out, errb bytes.Buffer
	if code := run([]string{"-format", "xml"}, &out, &errb); code != 2 {
		t.Fatalf("bad format exit code = %d, want 2", code)
	}
	if !strings.Contains(errb.String(), "unknown format") {
		t.Errorf("stderr missing format error: %s", errb.String())
	}
}

func TestUnknownFlagIsUsageError(t *testing.T) {
	var out, errb bytes.Buffer
	if code := run([]string{"-nope"}, &out, &errb); code != 2 {
		t.Fatalf("unknown flag exit code = %d, want 2", code)
	}
}

func TestMissingPackageIsLoadError(t *testing.T) {
	var out, errb bytes.Buffer
	if code := run([]string{"./no/such/dir"}, &out, &errb); code != 2 {
		t.Fatalf("missing package exit code = %d, want 2, stderr: %s", code, errb.String())
	}
}
