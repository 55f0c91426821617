package parser_test

import (
	"os"
	"path/filepath"
	"testing"

	"repro"
	"repro/internal/parser"
	"repro/internal/sem"
)

// addTestdataSeeds seeds f with every checked-in .ps program: the
// corpus and the testdata/fuzz/ differential-fuzzing programs. New
// corpus programs become front-end fuzz seeds automatically.
func addTestdataSeeds(f *testing.F) {
	f.Helper()
	for _, name := range repro.Programs() {
		f.Add(repro.Source(name))
	}
	paths, err := filepath.Glob("../../testdata/fuzz/*.ps")
	if err != nil {
		f.Fatal(err)
	}
	for _, p := range paths {
		src, err := os.ReadFile(p)
		if err != nil {
			f.Fatal(err)
		}
		f.Add(string(src))
	}
}

// FuzzParse feeds arbitrary source text through the full front end:
// lexing, parsing and — when a program parses — semantic checking. The
// invariant is purely "no panic, no hang": malformed input must come
// back as diagnostics, never as a crash. The seeds are every checked-in
// program plus inputs shaped like the historical sharp edges
// (unterminated strings and comments, stray pragmas, deep nesting,
// half-finished declarations).
func FuzzParse(f *testing.F) {
	addTestdataSeeds(f)
	for _, seed := range []string{
		"",
		"M: module (x: real): [y: real];\ndefine y = x; end M;",
		"(* unterminated comment",
		`S: module (c: string): [d: string]; define d = "unterminated`,
		"(*$m+v+x+t-*)\nP: module",
		"A: module (): [b: array [I] of real];\ntype I = 0 .. ;",
		"X: module (n: int): [m: int]; define m = ((((((((((n))))))))));\nend X;",
		"type I = 0 .. 10; define",
		"B: module (n: int): [r: real];\ndefine r = if n = 0 then 1.0 else 2.0; end B;",
		"\x00\x01\xff",
		"C: module (n: int): [r: int]; define r = n div 0; end C;",
	} {
		f.Add(seed)
	}
	f.Fuzz(func(t *testing.T, src string) {
		prog, err := parser.ParseProgram("fuzz.ps", src)
		if err != nil || prog == nil {
			return
		}
		// Anything that parses must also survive the checker without
		// panicking (diagnostics are fine).
		_, _ = sem.Check(prog)
	})
}

// FuzzParseExpr exercises the expression sub-grammar directly.
func FuzzParseExpr(f *testing.F) {
	for _, seed := range []string{
		"1 + 2 * x",
		"if a then b else c",
		"A[K-1,I,J]",
		"sqrt(abs(x)) / (y - 1.0)",
		"f(g(h(1)), 'c', \"s\")",
		"-(-(-x))",
		"a and not b or c <= d",
	} {
		f.Add(seed)
	}
	f.Fuzz(func(t *testing.T, src string) {
		_, _ = parser.ParseExpr(src)
	})
}
