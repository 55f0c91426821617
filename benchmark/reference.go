package main

// Independent references: each PS program of programs/ written again as
// plain Go loops over flat row-major slices. They share no code with the
// compiler or the interpreter, and results must match bit for bit. Every
// product is wrapped in an explicit float64(...) conversion, which the Go
// spec defines as a rounding point, so no architecture may fuse it with
// the following add.

// refRelaxation is Figure 1: maxK-1 Jacobi sweeps, boundary carried over.
func refRelaxation(in []param) [][]float64 {
	m, maxK := in[1].scalar, in[2].scalar
	w := m + 2
	old := append([]float64(nil), in[0].f...)
	cur := make([]float64, len(old))
	for k := int64(2); k <= maxK; k++ {
		for i := int64(0); i < w; i++ {
			for j := int64(0); j < w; j++ {
				if i == 0 || j == 0 || i == m+1 || j == m+1 {
					cur[i*w+j] = old[i*w+j]
				} else {
					cur[i*w+j] = (old[i*w+j-1] + old[(i-1)*w+j] + old[i*w+j+1] + old[(i+1)*w+j]) / 4
				}
			}
		}
		old, cur = cur, old
	}
	return [][]float64{old}
}

// refGaussSeidel is §4 Eq. 2: west and north neighbours come from the
// sweep in progress, so one grid updated in place in row-major order
// holds exactly the values the recurrence names.
func refGaussSeidel(in []param) [][]float64 {
	m, maxK := in[1].scalar, in[2].scalar
	w := m + 2
	a := append([]float64(nil), in[0].f...)
	for k := int64(2); k <= maxK; k++ {
		for i := int64(1); i <= m; i++ {
			for j := int64(1); j <= m; j++ {
				a[i*w+j] = (a[i*w+j-1] + a[(i-1)*w+j] + a[i*w+j+1] + a[(i+1)*w+j]) / 4
			}
		}
	}
	return [][]float64{a}
}

func refHeat3D(in []param) [][]float64 {
	g, n := in[0].f, in[1].scalar
	w := n + 1
	u := make([]float64, len(g))
	for i := int64(0); i <= n; i++ {
		for j := int64(0); j <= n; j++ {
			for k := int64(0); k <= n; k++ {
				at := (i*w+j)*w + k
				if i == 0 || j == 0 || k == 0 {
					u[at] = g[at]
				} else {
					u[at] = (u[at-w*w] + u[at-w] + u[at-1] + g[at]) / 4.0
				}
			}
		}
	}
	return [][]float64{u}
}

func refEditDistance(in []param) [][]float64 {
	a, b, n, m2 := in[0].i, in[1].i, in[2].scalar, in[3].scalar
	w := m2 + 1
	d := make([]float64, (n+1)*w)
	for i := int64(1); i <= n; i++ {
		d[i*w] = float64(i)
	}
	for j := int64(1); j <= m2; j++ {
		d[j] = float64(j)
	}
	for i := int64(1); i <= n; i++ {
		for j := int64(1); j <= m2; j++ {
			sub := 1.0
			if a[i-1] == b[j-1] { // A and B are indexed from 1
				sub = 0.0
			}
			d[i*w+j] = min(d[(i-1)*w+j]+1.0, min(d[i*w+j-1]+1.0, d[(i-1)*w+j-1]+sub))
		}
	}
	return [][]float64{d}
}

func refReflect(in []param) [][]float64 {
	seed, n := in[0].f, in[1].scalar
	x := make([]float64, n*n)
	y := make([]float64, n*n)
	at := func(i, j int64) int64 { return (i-1)*n + j - 1 } // both axes run 1..N
	for i := int64(1); i <= n; i++ {
		for j := int64(1); j <= n; j++ {
			if i == 1 || j == 1 {
				x[at(i, j)] = seed[at(i, j)]
				y[at(i, j)] = float64(0.5 * seed[at(i, j)])
			} else {
				x[at(i, j)] = (x[at(i-1, j)] + y[at(i, j-1)]) / 2.0
				y[at(i, j)] = (y[at(i-1, j)] + x[at(i, j-1)] + x[at(i-1, n+1-j)]) / 3.0
			}
		}
	}
	return [][]float64{x, y}
}

func refMutual(in []param) [][]float64 {
	seed, n := in[0].f, in[1].scalar
	w := n + 2
	x := make([]float64, w*w)
	y := make([]float64, w*w)
	for i := int64(0); i < w; i++ {
		for j := int64(0); j < w; j++ {
			at := i*w + j
			if i == 0 || j == 0 {
				x[at] = seed[at]
				y[at] = float64(0.5 * seed[at])
			} else {
				x[at] = (y[at-w] + x[at-1]) / 2.0
				y[at] = (x[at-w] + y[at-1]) / 2.0
			}
		}
	}
	return [][]float64{x, y}
}

func refActChain(in []param) [][]float64 {
	out := make([]float64, len(in[0].f))
	for k, x := range in[0].f {
		s1 := x + 1.0
		s2 := float64(s1 * 0.5)
		s3 := s2 + s1
		s4 := float64(s3 * 0.25)
		s5 := s4 - s2
		s6 := float64(s5 * s3)
		s7 := s6 + s4
		s8 := float64(s7 * 0.125)
		s9 := s8 + s6
		s10 := float64(s9 * s7)
		s11 := s10 - s8
		s12 := float64(s11 * 0.5)
		out[k] = s12 + s1
	}
	return [][]float64{out}
}

func refSmooth(in []param) [][]float64 {
	xs, n := in[0].f, in[1].scalar
	ys := make([]float64, len(xs))
	for i := int64(0); i <= n+1; i++ {
		if i == 0 || i == n+1 {
			ys[i] = xs[i]
		} else {
			ys[i] = (xs[i-1] + xs[i] + xs[i+1]) / 3.0
		}
	}
	return [][]float64{ys}
}

func refCoupled(in []param) [][]float64 {
	seed, n := in[0].f, in[1].scalar
	u := make([]float64, n*n)
	v := make([]float64, n*n)
	at := func(i, j int64) int64 { return (i-1)*n + j - 1 } // both axes run 1..N
	for i := int64(1); i <= n; i++ {
		for j := int64(1); j <= n; j++ {
			if i == 1 || j == 1 || j == n {
				u[at(i, j)] = seed[at(i, j)]
				v[at(i, j)] = float64(0.5 * seed[at(i, j)])
			} else {
				u[at(i, j)] = (u[at(i-1, j+1)] + v[at(i, j-1)]) / 2.0
				v[at(i, j)] = (v[at(i-1, j+1)] + u[at(i, j-1)]) / 2.0
			}
		}
	}
	return [][]float64{u, v}
}

func refSmithWaterman(in []param) [][]float64 {
	a, b, n, m2 := in[0].i, in[1].i, in[2].scalar, in[3].scalar
	w := m2 + 1
	s := make([]float64, (n+1)*w) // row 0 and column 0 stay 0.0
	for i := int64(1); i <= n; i++ {
		for j := int64(1); j <= m2; j++ {
			score := -1.0
			if a[i] == b[j] { // A and B are indexed from 0
				score = 2.0
			}
			s[i*w+j] = max(0.0, max(s[(i-1)*w+j-1]+score, max(s[(i-1)*w+j]-1.0, s[i*w+j-1]-1.0)))
		}
	}
	return [][]float64{s}
}
