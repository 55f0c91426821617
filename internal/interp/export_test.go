package interp

// ArenaLent is the program arena's count of arrays handed out and
// neither released nor kept (value.Arena.Lent).
func (p *Program) ArenaLent() int64 { return p.arena.Lent() }
