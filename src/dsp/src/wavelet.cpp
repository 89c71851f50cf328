#include "csecg/dsp/wavelet.hpp"

#include <stdexcept>

#include "csecg/common/check.hpp"

namespace csecg::dsp {
namespace {

// Scaling (lowpass) analysis filters, normalized so Σh = √2.  Values are
// the standard published Daubechies / Symlet / Coiflet coefficients.
const std::vector<double>& scaling_filter(WaveletFamily family) {
  static const std::vector<double> haar = {
      0.7071067811865476, 0.7071067811865476};
  static const std::vector<double> db2 = {
      0.48296291314469025, 0.836516303737469, 0.22414386804185735,
      -0.12940952255092145};
  static const std::vector<double> db3 = {
      0.3326705529509569, 0.8068915093133388, 0.4598775021193313,
      -0.13501102001039084, -0.08544127388224149, 0.035226291882100656};
  static const std::vector<double> db4 = {
      0.23037781330885523, 0.7148465705525415, 0.6308807679295904,
      -0.02798376941698385, -0.18703481171888114, 0.030841381835986965,
      0.032883011666982945, -0.010597401784997278};
  static const std::vector<double> db5 = {
      0.160102397974125, 0.6038292697974729, 0.7243085284385744,
      0.13842814590110342, -0.24229488706619015, -0.03224486958502952,
      0.07757149384006515, -0.006241490213011705, -0.012580751999015526,
      0.003335725285001549};
  static const std::vector<double> db6 = {
      0.11154074335008017, 0.4946238903983854, 0.7511339080215775,
      0.3152503517092432, -0.22626469396516913, -0.12976686756709563,
      0.09750160558707936, 0.02752286553001629, -0.031582039318031156,
      0.0005538422009938016, 0.004777257511010651, -0.00107730108499558};
  static const std::vector<double> db7 = {
      0.07785205408506236, 0.39653931948230575, 0.7291320908465551,
      0.4697822874053586, -0.14390600392910627, -0.22403618499416572,
      0.07130921926705004, 0.08061260915107307, -0.03802993693503463,
      -0.01657454163101562, 0.012550998556013784, 0.00042957797300470274,
      -0.0018016407039998328, 0.0003537138000010399};
  static const std::vector<double> db8 = {
      0.05441584224308161, 0.3128715909144659, 0.6756307362980128,
      0.5853546836548691, -0.015829105256023893, -0.2840155429624281,
      0.00047248457399797254, 0.128747426620186, -0.01736930100202211,
      -0.04408825393106472, 0.013981027917015516, 0.008746094047015655,
      -0.00487035299301066, -0.0003917403729959771, 0.0006754494059985568,
      -0.00011747678400228192};
  static const std::vector<double> db9 = {
      0.03807794736316728, 0.24383467463766728, 0.6048231236767786,
      0.6572880780366389, 0.13319738582208895, -0.29327378327258685,
      -0.09684078322087904, 0.14854074933476008, 0.030725681478322865,
      -0.06763282905952399, 0.00025094711499193845, 0.022361662123515244,
      -0.004723204757894831, -0.004281503681904723, 0.0018476468829611268,
      0.00023038576399541288, -0.0002519631889981789,
      3.9347319995026124e-05};
  static const std::vector<double> db10 = {
      0.026670057900950818, 0.18817680007762133, 0.5272011889309198,
      0.6884590394525921, 0.2811723436604265, -0.24984642432648865,
      -0.19594627437659665, 0.12736934033574265, 0.09305736460380659,
      -0.07139414716586077, -0.02945753682194567, 0.03321267405893324,
      0.0036065535669883944, -0.010733175482979604, 0.0013953517469940798,
      0.00199240529499085, -0.0006858566950046825, -0.0001164668549943862,
      9.358867000108985e-05, -1.326420300235487e-05};
  static const std::vector<double> sym4 = {
      -0.07576571478927333, -0.02963552764599851, 0.49761866763201545,
      0.8037387518059161, 0.29785779560527736, -0.09921954357684722,
      -0.012603967262037833, 0.0322231006040427};
  static const std::vector<double> sym5 = {
      0.027333068345077982, 0.029519490925774643, -0.039134249302383094,
      0.1993975339773936, 0.7234076904024206, 0.6339789634582119,
      0.01660210576452232, -0.17532808990845047, -0.021101834024758855,
      0.019538882735286728};
  static const std::vector<double> sym6 = {
      0.015404109327027373, 0.0034907120842174702, -0.11799011114819057,
      -0.048311742585633, 0.4910559419267466, 0.787641141030194,
      0.3379294217276218, -0.07263752278646252, -0.021060292512300564,
      0.04472490177066578, 0.0017677118642428036, -0.007800708325034148};
  static const std::vector<double> sym8 = {
      -0.0033824159510061256, -0.0005421323317911481, 0.03169508781149298,
      0.007607487324917605, -0.1432942383508097, -0.061273359067658524,
      0.4813596512583722, 0.7771857517005235, 0.3644418948353314,
      -0.05194583810770904, -0.027219029917056003, 0.049137179673607506,
      0.003808752013890615, -0.01495225833704823, -0.0003029205147213668,
      0.0018899503327594609};
  static const std::vector<double> coif1 = {
      -0.01565572813546454, -0.0727326195128539, 0.38486484686420286,
      0.8525720202122554, 0.3378976624578092, -0.0727326195128539};
  static const std::vector<double> coif2 = {
      -0.0007205494453645122, -0.0018232088707029932, 0.0056114348193944995,
      0.023680171946334084, -0.0594344186464569, -0.0764885990783064,
      0.41700518442169254, 0.8127236354455423, 0.3861100668211622,
      -0.06737255472196302, -0.04146493678175915, 0.016387336463522112};

  switch (family) {
    case WaveletFamily::kHaar:
      return haar;
    case WaveletFamily::kDb2:
      return db2;
    case WaveletFamily::kDb3:
      return db3;
    case WaveletFamily::kDb4:
      return db4;
    case WaveletFamily::kDb5:
      return db5;
    case WaveletFamily::kDb6:
      return db6;
    case WaveletFamily::kDb7:
      return db7;
    case WaveletFamily::kDb8:
      return db8;
    case WaveletFamily::kDb9:
      return db9;
    case WaveletFamily::kDb10:
      return db10;
    case WaveletFamily::kSym4:
      return sym4;
    case WaveletFamily::kSym5:
      return sym5;
    case WaveletFamily::kSym6:
      return sym6;
    case WaveletFamily::kSym8:
      return sym8;
    case WaveletFamily::kCoif1:
      return coif1;
    case WaveletFamily::kCoif2:
      return coif2;
  }
  throw std::invalid_argument("unknown WaveletFamily");
}

}  // namespace

const std::vector<WaveletFamily>& all_wavelet_families() {
  static const std::vector<WaveletFamily> families = {
      WaveletFamily::kHaar, WaveletFamily::kDb2,  WaveletFamily::kDb3,
      WaveletFamily::kDb4,  WaveletFamily::kDb5,  WaveletFamily::kDb6,
      WaveletFamily::kDb7,  WaveletFamily::kDb8,  WaveletFamily::kDb9,
      WaveletFamily::kDb10, WaveletFamily::kSym4, WaveletFamily::kSym5,
      WaveletFamily::kSym6, WaveletFamily::kSym8, WaveletFamily::kCoif1,
      WaveletFamily::kCoif2};
  return families;
}

std::string wavelet_name(WaveletFamily family) {
  switch (family) {
    case WaveletFamily::kHaar:
      return "haar";
    case WaveletFamily::kDb2:
      return "db2";
    case WaveletFamily::kDb3:
      return "db3";
    case WaveletFamily::kDb4:
      return "db4";
    case WaveletFamily::kDb5:
      return "db5";
    case WaveletFamily::kDb6:
      return "db6";
    case WaveletFamily::kDb7:
      return "db7";
    case WaveletFamily::kDb8:
      return "db8";
    case WaveletFamily::kDb9:
      return "db9";
    case WaveletFamily::kDb10:
      return "db10";
    case WaveletFamily::kSym4:
      return "sym4";
    case WaveletFamily::kSym5:
      return "sym5";
    case WaveletFamily::kSym6:
      return "sym6";
    case WaveletFamily::kSym8:
      return "sym8";
    case WaveletFamily::kCoif1:
      return "coif1";
    case WaveletFamily::kCoif2:
      return "coif2";
  }
  throw std::invalid_argument("unknown WaveletFamily");
}

Wavelet make_wavelet(WaveletFamily family) {
  Wavelet w;
  w.family = family;
  w.lowpass = scaling_filter(family);
  const std::size_t len = w.lowpass.size();
  w.highpass.resize(len);
  for (std::size_t k = 0; k < len; ++k) {
    const double sign = (k % 2 == 0) ? 1.0 : -1.0;
    w.highpass[k] = sign * w.lowpass[len - 1 - k];
  }
  return w;
}

}  // namespace csecg::dsp
