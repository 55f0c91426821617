package interp

// ArenaLent is the program arena's count of arrays handed out and not
// yet released (value.Arena.Lent).
func (p *Program) ArenaLent() int64 { return p.arena.Lent() }
