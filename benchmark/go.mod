module irred/benchmark

go 1.22

require irred v0.0.0

replace irred => ../
