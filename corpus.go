// Package repro holds the PS program corpus: every program the tests,
// tools and examples compile by name is one file testdata/<name>.ps,
// embedded here so packages outside the module root read the same text.
package repro

import (
	"embed"
	"strings"
)

//go:embed testdata/*.ps
var corpus embed.FS

// Source returns the text of testdata/<name>.ps. It panics when the
// corpus has no such program: names are fixed at build time.
func Source(name string) string {
	b, err := corpus.ReadFile("testdata/" + name + ".ps")
	if err != nil {
		panic("repro: no corpus program " + name)
	}
	return string(b)
}

// Programs lists the names of the corpus programs in lexical order.
func Programs() []string {
	entries, err := corpus.ReadDir("testdata")
	if err != nil {
		panic(err)
	}
	names := make([]string, len(entries))
	for i, e := range entries {
		names[i] = strings.TrimSuffix(e.Name(), ".ps")
	}
	return names
}
