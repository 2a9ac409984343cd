module automatazoo/bench

go 1.22

require automatazoo v0.0.0

replace automatazoo => ../
