module chiron/bench

go 1.22

require chiron v0.0.0

replace chiron => ../
